// Package durio enforces the durable-write contract on the WAL and the
// on-disk result store (docs/DURABILITY.md).
//
// Crash safety in internal/journal and internal/simcache rests on a
// precise ordering of write(2), fsync and rename — an ordering a
// reviewer can silently lose in any refactor, which is exactly how the
// Ramulator re-evaluation papers describe simulators drifting from
// their claimed contracts. durio makes the ordering machine-checked in
// every package of the module:
//
//   - a temp-write→rename publish (os.CreateTemp/os.Create followed by
//     os.Rename in one function) must Sync the file before the rename,
//     or a crash can publish an empty or partial entry under the final
//     name;
//   - every os.Rename must be followed, in the same function, by a
//     parent-directory fsync — the repo's syncDir idiom — because a
//     rename only becomes durable once the directory entry reaches
//     disk;
//   - Close errors on files opened for writing must be checked, not
//     discarded: the OS may surface a delayed write error only at
//     close (deferred closes inside cleanup closures on already-failed
//     paths are exempt);
//   - a record frame must go out in a single Write call, so a crash
//     between two writes can never tear a header from its payload;
//   - inside internal/journal, os.Rename may only target *.corrupt
//     quarantine names — any other destination risks clobbering a live
//     segment.
package durio

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the durio check.
var Analyzer = &analysis.Analyzer{
	Name: "durio",
	Doc: "enforce the fsync-before-rename durability contract on the WAL " +
		"and result store: file sync before rename, directory sync after, " +
		"checked write-path closes, single-write record framing",
	Run: run,
}

// JournalPackages additionally enforces the no-clobber rename rule
// (renames only to *.corrupt): segment files are live history and a
// rename over one destroys committed records.
var JournalPackages = map[string]bool{
	"repro/internal/journal": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	journalRules := JournalPackages[pass.Pkg.Path()]
	// Function literals are checked through their enclosing
	// declaration: the write/rename/sync calls of one publish sequence
	// can straddle a closure (cleanup defers), so the unit of analysis
	// is the outermost declaration.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn.Body, journalRules)
			}
		}
	}
	return nil, nil
}

// funcFacts records one function's renames, syncs, write-capable
// opens and per-file writes.
type funcFacts struct {
	renames    []*ast.CallExpr // os.Rename calls in source order
	fileSyncs  []token.Pos     // (*os.File).Sync calls
	dirSyncs   []token.Pos     // syncDir-idiom calls
	tempOpens  int             // os.Create/os.CreateTemp/os.OpenFile calls
	writeFiles map[types.Object]bool
	writes     map[types.Object][]token.Pos // (*os.File).Write* per file var
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, journalRules bool) {
	facts := &funcFacts{
		writeFiles: map[types.Object]bool{},
		writes:     map[types.Object][]token.Pos{},
	}

	// Pass 1: collect calls and classify file variables.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			collectOpens(pass, x, facts)
		case *ast.CallExpr:
			classifyCall(pass, x, facts)
		}
		return true
	})

	// Rule: temp-write→rename without a file sync.
	if len(facts.renames) > 0 && facts.tempOpens > 0 && len(facts.fileSyncs) == 0 {
		pass.Reportf(facts.renames[0].Pos(),
			"temp-write→rename publish with no File.Sync before the rename: a crash can publish an empty or partial entry")
	}

	// Rule: every rename is followed by a directory sync.
	for _, rn := range facts.renames {
		if !hasDirSyncAfter(facts, rn.Pos()) {
			pass.Reportf(rn.Pos(),
				"os.Rename is not followed by a parent-directory fsync (syncDir) in this function: the rename may not survive a crash")
		}
		if journalRules && !renameTargetsQuarantine(rn) {
			pass.Reportf(rn.Pos(),
				"os.Rename inside the journal may only target a *.corrupt quarantine name: any other destination can clobber a live segment")
		}
	}

	// Rule: a frame must be one Write call.
	for _, poss := range facts.writes {
		if len(poss) > 1 {
			pass.Reportf(poss[1],
				"record framed across %d Write calls: assemble one buffer and write it in a single call so a crash cannot tear the frame",
				len(poss))
		}
	}

	// Rule: write-path Close results must be checked.
	checkCloses(pass, body, facts)
}

// collectOpens records file variables assigned from a write-capable
// open (os.Create, os.CreateTemp, os.OpenFile).
func collectOpens(pass *analysis.Pass, as *ast.AssignStmt, facts *funcFacts) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch calleeName(pass, call) {
		case "os.Create", "os.CreateTemp", "os.OpenFile":
			facts.tempOpens++
			// Multi-value assignment f, err := ... : the file is LHS[0]
			// when RHS has one call, else positional.
			idx := 0
			if len(as.Rhs) == len(as.Lhs) {
				idx = i
			}
			if idx < len(as.Lhs) {
				if id, ok := as.Lhs[idx].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						facts.writeFiles[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						facts.writeFiles[obj] = true
					}
				}
			}
		}
	}
}

// classifyCall files renames, syncs and writes into facts.
func classifyCall(pass *analysis.Pass, call *ast.CallExpr, facts *funcFacts) {
	name := calleeName(pass, call)
	switch {
	case name == "os.Rename":
		facts.renames = append(facts.renames, call)
	case name == "(*os.File).Sync":
		facts.fileSyncs = append(facts.fileSyncs, call.Pos())
	case isDirSyncIdiom(call):
		facts.dirSyncs = append(facts.dirSyncs, call.Pos())
	case name == "(*os.File).Write" || name == "(*os.File).WriteString" || name == "(*os.File).WriteAt":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					facts.writes[obj] = append(facts.writes[obj], call.Pos())
				}
			}
		}
	}
}

// hasDirSyncAfter reports whether a syncDir call appears after pos.
func hasDirSyncAfter(facts *funcFacts, pos token.Pos) bool {
	for _, p := range facts.dirSyncs {
		if p > pos {
			return true
		}
	}
	return false
}

// isDirSyncIdiom recognizes the repo's parent-directory fsync helper
// by name: any function or method whose name contains "syncdir"
// (case-insensitive) — syncDir, SyncDir, fsyncDir. Name-based so
// golden fixtures (type-checked against the standard library only)
// can exercise the rule with a local helper.
func isDirSyncIdiom(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "syncdir")
}

// renameTargetsQuarantine reports whether the rename destination is a
// string concatenation ending in the ".corrupt" literal — the only
// rename the journal's replay is allowed to perform.
func renameTargetsQuarantine(call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	bin, ok := call.Args[1].(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return false
	}
	lit, ok := bin.Y.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && strings.HasSuffix(strings.Trim(lit.Value, `"`), ".corrupt")
}

// checkCloses flags discarded Close results on write-opened files:
// bare `f.Close()`, `_ = f.Close()` and direct `defer f.Close()`.
// Closes inside deferred closures are cleanup on already-failed paths
// and stay exempt.
func checkCloses(pass *analysis.Pass, body *ast.BlockStmt, facts *funcFacts) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if obj := closeTarget(pass, x.Call); obj != nil && facts.writeFiles[obj] {
				pass.Reportf(x.Pos(),
					"defer discards the Close error of a file opened for writing: delayed write errors surface at close; check it explicitly")
			}
			// Do not descend into deferred closures: their closes are
			// cleanup for paths that already returned an error.
			return false
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				if obj := closeTarget(pass, call); obj != nil && facts.writeFiles[obj] {
					pass.Reportf(x.Pos(),
						"Close error of a file opened for writing is discarded: delayed write errors surface at close; check it")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				obj := closeTarget(pass, call)
				if obj == nil || !facts.writeFiles[obj] {
					continue
				}
				if i < len(x.Lhs) && isBlank(x.Lhs[i]) {
					pass.Reportf(x.Pos(),
						"Close error of a file opened for writing is explicitly discarded: delayed write errors surface at close; check it")
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// closeTarget resolves f in a `f.Close()` call to its variable object
// when f is an *os.File, else nil.
func closeTarget(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	if calleeName(pass, call) != "(*os.File).Close" {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeName resolves a call to "pkg.Func" or "(*pkg.Type).Method"
// form via type information.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return ""
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return obj.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

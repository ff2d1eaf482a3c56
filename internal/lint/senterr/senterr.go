// Package senterr enforces sentinel-error hygiene module-wide.
//
// The service layers deliberately wrap every failure (%w, *JobError,
// *BuildError, *RepetitionError), so sentinel errors such as
// jobs.ErrQueueFull, server.ErrShed, cluster.ErrEpochMismatch and
// stats.ErrEmptySample only match through errors.Is. Four patterns
// defeat that contract and are flagged:
//
//   - comparing a sentinel with == or != (or a case clause in a value
//     switch), which stops matching the moment anyone adds wrapping;
//   - matching on error text (err.Error() compared or fed to strings
//     predicates), which breaks on any reworded message;
//   - passing a sentinel to fmt.Errorf under a verb other than %w,
//     which erases the chain errors.Is needs;
//   - referencing a deprecated sentinel alias (DeprecatedAliases).
//
// A sentinel here is any package-level variable of error type whose
// name starts with Err/err — the universal Go naming convention this
// repo follows.
package senterr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the senterr check.
var Analyzer = &analysis.Analyzer{
	Name: "senterr",
	Doc: "sentinel errors must be matched with errors.Is and wrapped with %w, " +
		"never compared with == or by message text",
	Run: run,
}

// DeprecatedAliases maps "pkgpath.Name" of retired sentinel aliases to
// the replacement to suggest. Entries outlive the alias itself:
// jobs.ErrFull has been deleted from the codebase, and its entry stays
// so any reintroduction (or a stale branch referencing it) is flagged
// immediately. Tests may add fixture entries.
var DeprecatedAliases = map[string]string{
	"repro/internal/jobs.ErrFull": "jobs.ErrQueueFull",
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			case *ast.CallExpr:
				checkStringMatch(pass, n)
				checkWrapVerb(pass, n)
			case *ast.Ident:
				checkDeprecated(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// sentinelName returns a display name when e refers to a package-level
// error variable following the Err naming convention.
func sentinelName(pass *analysis.Pass, e ast.Expr) string {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	if !strings.HasPrefix(obj.Name(), "Err") && !strings.HasPrefix(obj.Name(), "err") {
		return ""
	}
	if !implementsError(obj.Type()) {
		return ""
	}
	if obj.Pkg().Path() == pass.Pkg.Path() {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

func implementsError(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}

func checkComparison(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if name := sentinelName(pass, side); name != "" {
			pass.Reportf(bin.Pos(),
				"sentinel %s compared with %s; use errors.Is so wrapped errors still match", name, bin.Op)
			return
		}
	}
	// err.Error() == "..." — message-text matching.
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if isErrorTextCall(pass, side) {
			pass.Reportf(bin.Pos(),
				"comparing err.Error() text; match the error with errors.Is (or errors.As) instead of its message")
			return
		}
	}
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if name := sentinelName(pass, e); name != "" {
				pass.Reportf(e.Pos(),
					"sentinel %s in a value switch compares by identity; use errors.Is in an if/else chain", name)
			}
		}
	}
}

// stringPredicates are strings-package functions that, fed err.Error(),
// constitute message matching.
var stringPredicates = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Index": true, "Count": true,
}

func checkStringMatch(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringPredicates[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if isErrorTextCall(pass, arg) {
			pass.Reportf(call.Pos(),
				"matching err.Error() text with strings.%s; use errors.Is (or errors.As) instead of message matching", fn.Name())
			return
		}
	}
}

// isErrorTextCall reports whether e is a call of the error interface's
// Error method.
func isErrorTextCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	return recv != nil && implementsError(recv)
}

// checkWrapVerb flags fmt.Errorf("... %v ...", sentinel): the sentinel
// must travel under %w to stay visible to errors.Is.
func checkWrapVerb(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	verbs, ok := scanVerbs(strings.Trim(lit.Value, "`\""))
	if !ok {
		return // indexed or otherwise exotic format; stay quiet
	}
	for i, arg := range call.Args[1:] {
		name := sentinelName(pass, arg)
		if name == "" || i >= len(verbs) {
			continue
		}
		if verbs[i] != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel %s formatted with %%%c; wrap it with %%w so errors.Is keeps matching", name, verbs[i])
		}
	}
}

// scanVerbs extracts the verb letter consumed by each successive
// argument of a Printf-style format. Returns ok=false on %[n] indexing,
// which would invalidate the positional mapping.
func scanVerbs(format string) ([]byte, bool) {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		// flags, width, precision; '*' consumes an argument of its own.
		for i < len(format) {
			c := format[i]
			if c == '[' {
				return nil, false
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.ContainsRune("+-# 0.0123456789", rune(c)) {
				i++
				continue
			}
			break
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs, true
}

// checkDeprecated flags uses of retired sentinel aliases.
func checkDeprecated(pass *analysis.Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	key := obj.Pkg().Path() + "." + obj.Name()
	if repl, ok := DeprecatedAliases[key]; ok {
		pass.Reportf(id.Pos(), "deprecated sentinel alias %s; use %s (the alias is slated for removal)", obj.Name(), repl)
	}
}

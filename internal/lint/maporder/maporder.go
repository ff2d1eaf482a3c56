// Package maporder flags map iteration whose body is order-sensitive.
//
// Go randomizes map iteration order per run. Inside the packages that
// produce figures, tables, statistics and cache keys, a `range` over a
// map that appends to an outer slice, accumulates floating-point
// values, writes output, or feeds a hash therefore breaks the
// bit-identity the paper's reproduction relies on (float addition is
// not associative; emitted rows and hashed bytes change order per
// process). The fix is the sorted-keys idiom used by
// campaign.RunContext: collect the keys, sort, then range the sorted
// slice. A loop whose only order-sensitive work is appending to one
// slice that a later statement of an enclosing block sorts — keys, or
// values as faultinject.Snapshot collects them — is recognized and not
// flagged.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map whose body appends to outer slices, accumulates " +
		"floats, emits output or feeds a hash — map order is nondeterministic",
	Run: run,
}

// Packages scopes the check to the code whose output must be
// bit-identical: the deterministic simulation set plus the reporting,
// caching and orchestration layers that turn results into rows, files
// and cache keys. Tests may add fixture paths.
var Packages = map[string]bool{
	"repro/internal/loggopsim":   true,
	"repro/internal/noise":       true,
	"repro/internal/eventq":      true,
	"repro/internal/collectives": true,
	"repro/internal/extrapolate": true,
	"repro/internal/rng":         true,
	"repro/internal/stats":       true,
	"repro/internal/core":        true,
	"repro/internal/mca":         true,
	"repro/internal/report":      true,
	"repro/internal/simcache":    true,
	"repro/internal/campaign":    true,
	"repro/internal/systems":     true,
	"repro/internal/cluster":     true,
	"repro/internal/advise":      true,
	"repro/internal/faultmodel":  true,
	"repro/internal/journal":     true,
	"repro/internal/tenant":      true,
	"repro/internal/memo":        true,
}

// emitMethods are method names whose call inside a map-range body means
// the iteration order reaches an output stream, a hasher or a report
// row.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteRow": true, "AddRow": true, "Print": true, "Printf": true,
	"Println": true,
}

// fmtEmitFuncs are fmt package functions that emit directly.
var fmtEmitFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		// parent tracks enclosing statement lists so the sorted-keys
		// idiom can look at what follows the loop.
		var stack []ast.Node
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkRange(pass, rs, stack)
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return nil, nil
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	sinks := collectSinks(pass, rs)
	if len(sinks) == 0 {
		return
	}
	if onlySortedCollection(pass, rs, sinks, stack) {
		return
	}
	for _, s := range sinks {
		pass.Reportf(s.pos, "range over map %s %s; map iteration order is nondeterministic — sort the keys first (collect, sort.Strings/slices.Sort, then range the slice)",
			exprString(rs.X), s.what)
	}
}

// sink is one order-sensitive operation found in a range body.
type sink struct {
	pos  token.Pos
	what string
	// appendTo is the outer slice object for append sinks (nil
	// otherwise); it drives the sorted-collection exemption.
	appendTo types.Object
}

func collectSinks(pass *analysis.Pass, rs *ast.RangeStmt) []sink {
	var sinks []sink
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sinks = append(sinks, assignSinks(pass, rs, n)...)
		case *ast.CallExpr:
			if s, ok := callSink(pass, n); ok {
				sinks = append(sinks, s)
			}
		}
		return true
	})
	return sinks
}

// assignSinks finds appends to outer slices and float accumulation
// into outer variables.
func assignSinks(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt) []sink {
	var sinks []sink
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if obj := outerObj(pass, rs, lhs); obj != nil && isFloat(pass.TypesInfo.TypeOf(lhs)) {
				sinks = append(sinks, sink{pos: as.Pos(),
					what: "accumulates floating-point values into " + exprString(lhs) + " (float addition is not associative)"})
			}
		}
	case token.ASSIGN:
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			lhs := as.Lhs[i]
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
				obj := outerObj(pass, rs, lhs)
				if obj == nil {
					continue
				}
				sinks = append(sinks, sink{
					pos:      as.Pos(),
					what:     "appends to outer slice " + exprString(lhs),
					appendTo: obj,
				})
				continue
			}
			// x = x + delta float accumulation spelled out longhand.
			if bin, ok := rhs.(*ast.BinaryExpr); ok && isFloat(pass.TypesInfo.TypeOf(lhs)) {
				if obj := outerObj(pass, rs, lhs); obj != nil && mentionsObj(pass, bin, obj) {
					sinks = append(sinks, sink{pos: as.Pos(),
						what: "accumulates floating-point values into " + exprString(lhs) + " (float addition is not associative)"})
				}
			}
		}
	}
	return sinks
}

// callSink recognizes emission and hashing calls.
func callSink(pass *analysis.Pass, call *ast.CallExpr) (sink, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return sink{}, false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return sink{}, false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtEmitFuncs[fn.Name()] {
				return sink{pos: call.Pos(), what: "emits output via fmt." + fn.Name()}, true
			}
			return sink{}, false
		}
		if emitMethods[fn.Name()] {
			return sink{pos: call.Pos(),
				what: "feeds " + exprString(sel.X) + "." + fn.Name() + " (output, report rows or hash/cache-key bytes)"}, true
		}
		// Sum/Encode are only order-sensitive on hashers and stream
		// encoders, not on arbitrary getters that share the name.
		if pkg := fn.Pkg(); pkg != nil {
			p := pkg.Path()
			hashy := p == "hash" || strings.HasPrefix(p, "hash/") || strings.HasPrefix(p, "crypto")
			encodey := strings.HasPrefix(p, "encoding")
			if (fn.Name() == "Sum" && hashy) || (fn.Name() == "Encode" && encodey) {
				return sink{pos: call.Pos(),
					what: "feeds " + exprString(sel.X) + "." + fn.Name() + " (hash or encoded stream)"}, true
			}
		}
	}
	return sink{}, false
}

// onlySortedCollection reports whether every sink is an append into
// one outer slice that a later statement in an enclosing block sorts —
// the canonical deterministic idiom, whether the loop collects keys or
// values.
func onlySortedCollection(pass *analysis.Pass, rs *ast.RangeStmt, sinks []sink, stack []ast.Node) bool {
	var target types.Object
	for _, s := range sinks {
		if s.appendTo == nil {
			return false
		}
		if target == nil {
			target = s.appendTo
		} else if target != s.appendTo {
			return false
		}
	}
	if target == nil {
		return false
	}
	// Find the statement list containing the range (directly or via a
	// labeled statement) and look for a sort of the collected slice in
	// any following statement of any enclosing block.
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		after := false
		for _, st := range block.List {
			if containsNode(st, rs) {
				after = true
				continue
			}
			if after && sortsObj(pass, st, target) {
				return true
			}
		}
	}
	return false
}

// sortsObj reports whether stmt contains a sort.*/slices.Sort* call
// over obj.
func sortsObj(pass *analysis.Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// outerObj resolves lhs to a variable declared outside the range body
// (the range's own key/value vars count as inner). Selector
// expressions resolve through their root identifier.
func outerObj(pass *analysis.Pass, rs *ast.RangeStmt, lhs ast.Expr) types.Object {
	id := rootIdent(lhs)
	if id == nil {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return nil // declared by the range or inside its body
	}
	return obj
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "append"
}

func mentionsObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func containsNode(outer ast.Node, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	default:
		return "expression"
	}
}

// Package gorolife ties every goroutine to a lifecycle.
//
// A `go func` with no cancellation signal is a leak waiting for a
// graceful-drain test to find it: the daemon's SIGTERM path waits on
// WaitGroups and contexts, and any goroutine tied to neither outlives
// the drain (or blocks it forever). gorolife requires the body of
// every go statement in the service tier to reference at least one
// lifecycle mechanism:
//
//   - a context.Context value (checked in a loop, passed to a blocking
//     call, or selected on via Done());
//   - a sync.WaitGroup (Done/Wait) — the pool-shutdown idiom;
//   - a channel operation: receive, send, range, select or close —
//     the goroutine is sequenced against another's signal.
//
// Named same-package functions launched with `go q.worker()` are
// resolved and their bodies checked the same way; a goroutine whose
// body lives in another package must at least receive a context,
// channel or WaitGroup argument at the launch site.
//
// Separately, any for-loop that polls with time.Sleep and checks no
// context and no channel in its body is flagged wherever it appears:
// such a loop cannot be stopped, only abandoned.
package gorolife

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the gorolife check.
var Analyzer = &analysis.Analyzer{
	Name: "gorolife",
	Doc: "every goroutine must be tied to a lifecycle (context, WaitGroup " +
		"or channel); time.Sleep polling loops with no cancellation check " +
		"are flagged",
	Run: run,
}

// Packages scopes the check to the packages that spawn goroutines in
// production: the service tier, the parallel engine driver and the
// daemon binary. Tests may add fixture paths.
var Packages = map[string]bool{
	"repro/internal/jobs":        true,
	"repro/internal/cluster":     true,
	"repro/internal/journal":     true,
	"repro/internal/simcache":    true,
	"repro/internal/tenant":      true,
	"repro/internal/advise":      true,
	"repro/internal/server":      true,
	"repro/internal/collectives": true,
	"repro/internal/core":        true,
	"repro/internal/faultinject": true,
	"repro/internal/memo":        true,
	"repro/cmd/cesimd":           true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	// Index top-level function and method declarations by object so
	// `go q.worker()` resolves to its body.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				checkGo(pass, x, decls)
			case *ast.ForStmt:
				checkSleepLoop(pass, x)
			case *ast.RangeStmt:
				checkSleepLoop(pass, x)
			}
			return true
		})
	}
	return nil, nil
}

// checkGo verifies one go statement has a lifecycle tie.
func checkGo(pass *analysis.Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) {
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[fun]; obj != nil {
			if fd := decls[obj]; fd != nil {
				body = fd.Body
			}
		}
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[fun.Sel]; obj != nil {
			if fd := decls[obj]; fd != nil {
				body = fd.Body
			}
		}
	}
	if body != nil {
		if !hasLifecycle(pass, body) {
			pass.Reportf(g.Pos(),
				"goroutine has no lifecycle tie: its body checks no context, joins no WaitGroup and touches no channel, so nothing can stop or await it")
		}
		return
	}
	// Body out of reach (another package): the launch site must at
	// least hand the goroutine a lifecycle-capable argument.
	for _, arg := range g.Call.Args {
		if isLifecycleType(pass.TypesInfo.Types[arg].Type) {
			return
		}
	}
	pass.Reportf(g.Pos(),
		"goroutine launches an external function with no context, channel or WaitGroup argument: nothing can stop or await it")
}

// hasLifecycle reports whether the body references a context value, a
// WaitGroup join, or any channel operation. Nested function literals
// are included: a lifecycle registered in a deferred closure counts.
func hasLifecycle(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		// Any expression of type context.Context counts — an ident, a
		// field, or a call result like context.Background().
		if e, ok := n.(ast.Expr); ok {
			if t := pass.TypesInfo.Types[e].Type; t != nil && isContextType(t) {
				found = true
				return false
			}
		}
		switch x := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
					found = true // builtin close: the goroutine signals completion
				}
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					switch fn.FullName() {
					case "(*sync.WaitGroup).Done", "(*sync.WaitGroup).Wait":
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// checkSleepLoop flags a loop that calls time.Sleep directly but
// references no context (in its condition or body) and performs no
// channel operation: the loop polls forever with no way to stop it.
func checkSleepLoop(pass *analysis.Pass, loop ast.Stmt) {
	sleeps := false
	cancellable := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if t := pass.TypesInfo.Types[e].Type; t != nil && isContextType(t) {
				cancellable = true
			}
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure is its own scope
		case *ast.SendStmt, *ast.SelectStmt:
			cancellable = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				cancellable = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
					sleeps = true
				}
			}
		}
		return true
	})
	if sleeps && !cancellable {
		pass.Reportf(loop.Pos(),
			"polling loop sleeps with no cancellation check: select on the context's Done channel (or pass a context into the sleep) so the loop can stop")
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isLifecycleType reports whether an argument type can carry a
// lifecycle into an opaque goroutine: a context, a channel, or a
// WaitGroup pointer.
func isLifecycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if isContextType(t) {
		return true
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
				return true
			}
		}
	}
	return false
}

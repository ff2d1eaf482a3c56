// Package ctxflow enforces context discipline on the serving path.
//
// cesimd's request handling (server → jobs → core) promises
// that cancellation propagates end-to-end: a client disconnect or a
// drain deadline must reach the repetition loop (docs/SERVICE.md). Three
// patterns quietly break that chain:
//
//   - a context.Context parameter that is not the first parameter, which
//     hides it from reviewers and from this very analyzer's other rules;
//   - calling context.Background()/context.TODO() inside a function that
//     already has a ctx in lexical scope, which detaches all downstream
//     work from the caller's cancellation;
//   - comparing cancellation errors with == instead of
//     errors.Is(err, context.Canceled): every layer here wraps errors
//     (%w, JobError, BuildError, RepetitionError), so identity
//     comparison silently stops matching.
//
// Functions with no ctx parameter may create a fresh context — that is
// how detached lifetimes (job execution, main) are built on purpose.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require ctx-first signatures, forbid context.Background/TODO where a " +
		"ctx is in scope, and require errors.Is for cancellation errors",
	Run: run,
}

// Packages scopes the check to the request path. Tests may add fixture
// paths.
var Packages = map[string]bool{
	"repro/internal/server":     true,
	"repro/internal/jobs":       true,
	"repro/internal/simcache":   true,
	"repro/internal/core":       true,
	"repro/internal/campaign":   true,
	"repro/internal/cluster":    true,
	"repro/internal/advise":     true,
	"repro/internal/faultmodel": true,
	"repro/internal/journal":    true,
	"repro/internal/tenant":     true,
	"repro/internal/memo":       true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil, nil
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// ctxDepth > 0 while walking nodes lexically enclosed by a
	// function that binds a context.Context parameter.
	ctxDepth := 0
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkSignature(pass, n.Type)
			has := bindsCtx(pass, n.Type)
			if has {
				ctxDepth++
			}
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			if has {
				ctxDepth--
			}
			return false
		case *ast.FuncLit:
			checkSignature(pass, n.Type)
			has := bindsCtx(pass, n.Type)
			if has {
				ctxDepth++
			}
			ast.Inspect(n.Body, visit)
			if has {
				ctxDepth--
			}
			return false
		case *ast.CallExpr:
			checkCall(pass, n, ctxDepth > 0)
		case *ast.BinaryExpr:
			checkComparison(pass, n)
		case *ast.SwitchStmt:
			checkSwitch(pass, n)
		}
		return true
	}
	ast.Inspect(f, visit)
}

// checkSignature flags context.Context parameters that are not first.
func checkSignature(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtxType(pass, field.Type) && idx > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter so cancellation flow stays visible")
		}
		idx += n
	}
}

// bindsCtx reports whether the function type has a context.Context
// parameter.
func bindsCtx(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isCtxType(pass, field.Type) {
			return true
		}
	}
	return false
}

func isCtxType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCall flags context.Background()/TODO() where a ctx parameter is
// lexically in scope.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, ctxInScope bool) {
	if !ctxInScope {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		pass.Reportf(call.Pos(),
			"context.%s() detaches this call chain from the caller's cancellation; propagate the ctx parameter instead",
			fn.Name())
	}
}

// checkComparison flags == / != against context.Canceled or
// context.DeadlineExceeded.
func checkComparison(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if name := ctxSentinel(pass, side); name != "" {
			pass.Reportf(bin.Pos(),
				"cancellation errors are wrapped on this path; use errors.Is(err, context.%s) instead of %s",
				name, bin.Op)
		}
	}
}

// checkSwitch flags `switch err { case context.Canceled: ... }`.
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
			if name := ctxSentinel(pass, e); name != "" {
				pass.Reportf(e.Pos(),
					"switching on context.%s compares by identity; use errors.Is so wrapped cancellation still matches",
					name)
			}
		}
	}
}

// ctxSentinel returns "Canceled"/"DeadlineExceeded" when e refers to
// that context package variable.
func ctxSentinel(pass *analysis.Pass, e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	if obj.Name() == "Canceled" || obj.Name() == "DeadlineExceeded" {
		return obj.Name()
	}
	return ""
}

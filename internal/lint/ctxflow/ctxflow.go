// Package ctxflow enforces context discipline module-wide.
//
// cesimd's request handling (server → jobs → core) promises
// that cancellation propagates end-to-end: a client disconnect or a
// drain deadline must reach the repetition loop (docs/SERVICE.md). Two
// patterns quietly break that chain:
//
//   - a context.Context parameter that is not the first parameter, which
//     hides it from reviewers and from this very analyzer's other rule;
//   - calling context.Background()/context.TODO() inside a function that
//     already has a ctx in lexical scope, which detaches all downstream
//     work from the caller's cancellation.
//
// Functions with no ctx parameter may create a fresh context — that is
// how detached lifetimes (job execution, main) are built on purpose.
// Comparing context.Canceled or context.DeadlineExceeded by identity is
// senterr's sentinel rule.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require ctx-first signatures and forbid context.Background/TODO " +
		"where a ctx is in scope",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
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
	enter := func(ft *ast.FuncType, body *ast.BlockStmt) {
		checkSignature(pass, ft)
		has := bindsCtx(pass, ft)
		if has {
			ctxDepth++
		}
		if body != nil {
			ast.Inspect(body, visit)
		}
		if has {
			ctxDepth--
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			enter(n.Type, n.Body)
			return false
		case *ast.FuncLit:
			enter(n.Type, n.Body)
			return false
		case *ast.CallExpr:
			checkCall(pass, n, ctxDepth > 0)
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

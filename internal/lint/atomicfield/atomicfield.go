// Package atomicfield requires the typed atomics.
//
// A counter read with atomic.LoadUint64 in one place and `s.n++` in
// another is a data race the race detector only catches when both
// paths run in one test; the mistake survives review because each site
// looks correct in isolation. The typed wrappers (atomic.Uint64,
// atomic.Pointer, ...) make it unrepresentable — their inner state is
// unexported — so atomicfield reports every use of a package-level
// sync/atomic function (AddUint64, LoadInt32, CompareAndSwapPointer,
// ...), the address-taking API through which a field can be accessed
// both atomically and plainly. Methods of the typed wrappers are not
// reported.
package atomicfield

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the atomicfield check.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "use the typed sync/atomic wrappers: the package-level " +
		"address-taking functions are reported (module-wide)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(),
				"atomic.%s takes a field's address, so the field can still be read or written plainly elsewhere; use the typed atomic wrappers (atomic.Uint64, atomic.Pointer, ...)",
				fn.Name())
			return true
		})
	}
	return nil, nil
}

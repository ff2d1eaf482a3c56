// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis API surface that ceslint needs.
// The build environment vendors nothing, so rather than importing
// x/tools we mirror its shape: an Analyzer owns a Run function that
// receives a Pass (one type-checked package) and reports Diagnostics.
// Analyzers written against this package read exactly like stock
// go/analysis analyzers and could be ported to the real framework by
// changing one import path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one ceslint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in -only. Must
	// be a single lower-case word.
	Name string
	// Doc is the one-paragraph description shown by `ceslint -help`.
	Doc string
	// Run performs the check on a single package and reports findings
	// through pass.Report. The returned value is unused by the runner
	// (kept for x/tools API parity).
	Run func(*Pass) (interface{}, error)
}

// Pass carries one type-checked package to an Analyzer's Run.
type Pass struct {
	// Analyzer is the analyzer being run (for self-identification).
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions; shared across packages.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for expressions in
	// Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The runner
// attaches the analyzer name when printing.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

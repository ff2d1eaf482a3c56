package runner_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/lint/runner"
	"repro/internal/lint/senterr"
)

// check type-checks one in-memory file as package "p" and runs the
// given analyzers through the runner.
func check(t *testing.T, src string, analyzers ...*analysis.Analyzer) []runner.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := load.NewInfo()
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &load.Package{Path: "p", Dir: ".", Files: []*ast.File{f}, Types: tpkg, Info: info}
	diags, err := runner.Run(fset, []*load.Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func messages(diags []runner.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	diags := check(t, `package p

import "errors"

var ErrA = errors.New("a")
var ErrB = errors.New("b")

func f(err error) bool {
	b := err == ErrB
	a := err == ErrA
	return a && b
}
`, senterr.Analyzer)
	if len(diags) != 2 {
		t.Fatalf("diags = %v", messages(diags))
	}
	if diags[0].Position.Line >= diags[1].Position.Line {
		t.Fatalf("not sorted by position: %v then %v", diags[0].Position, diags[1].Position)
	}
}

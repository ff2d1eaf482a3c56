// Package runner executes ceslint analyzers over loaded packages and
// returns every finding sorted by position. There is no suppression
// comment: a false positive is fixed in the analyzer or in the code.
package runner

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Diagnostic is one printable finding.
type Diagnostic struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Position is the resolved file position.
	Position token.Position
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run executes every analyzer on every package and returns the
// diagnostics. An analyzer returning an error aborts the run.
func Run(fset *token.FileSet, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					out = append(out, Diagnostic{Analyzer: a.Name, Position: fset.Position(d.Pos), Message: d.Message})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// Package lint assembles the ceslint analyzer suite: the determinism
// and safety checks that mechanically enforce the simulator's
// bit-identity invariants (docs/LINT.md). cmd/ceslint is the CLI; the
// analyzers live in the subpackages and the execution machinery in
// analysis, load and runner.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicfield"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/detrand"
	"repro/internal/lint/durio"
	"repro/internal/lint/gorolife"
	"repro/internal/lint/lockcheck"
	"repro/internal/lint/maporder"
	"repro/internal/lint/senterr"
)

// All returns the full analyzer suite in stable order: the determinism
// checks from PR 4 plus the concurrency and durability contract
// analyzers (lockcheck, durio, atomicfield, gorolife).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		detrand.Analyzer,
		durio.Analyzer,
		gorolife.Analyzer,
		lockcheck.Analyzer,
		maporder.Analyzer,
		senterr.Analyzer,
	}
}

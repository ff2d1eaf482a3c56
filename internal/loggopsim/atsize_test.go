package loggopsim

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// TestReferenceAtSize holds the engine to the reference interpreter on
// real workloads: the nine tracegen workloads at 128 ranks (lulesh at
// 125, a cube) and 4
// iterations under CEs on every node, from a Poisson process (MTBCE
// 20 ms) and from each fault-mix preset's mixture (MTBCE 1 s: at 50 ms
// a node in the tail of the presets' per-node skew saturates, and the
// reference has no guard to stop it), so burst trains reach the engine;
// and minife at 64 ranks four to a node under CEs the node's ranks
// share, the configuration ablation-correlated-smm runs. The fuzzer's
// traces are a few ranks long; ring geometry and long posted lists
// appear only at size. Every arrival process must charge detours on
// some workload, and the Poisson one on every workload.
func TestReferenceAtSize(t *testing.T) {
	arrivals := []noise.Arrivals{noise.Poisson(20 * ms)}
	for _, mix := range systems.FaultMixes() {
		p, err := mix.Spec.WithMTBCE(1000 * ms).Process()
		if err != nil {
			t.Fatal(err)
		}
		arrivals = append(arrivals, p)
	}
	detour := func(wl string, ranks, iters int, cfg Config, nm noise.Config) int64 {
		t.Helper()
		tr, err := tracegen.Generate(wl, tracegen.PreferredRanks(wl, ranks), iters, 1)
		if err != nil {
			t.Fatal(err)
		}
		return requireMatchesReference(t, fuzzCase{tr: tr, cfg: cfg, noise: &nm}).Profile.Detour
	}
	charged := make([]int64, len(arrivals))
	for _, wl := range tracegen.Names() {
		for i, arr := range arrivals {
			d := detour(wl, 128, 4, Config{Net: netmodel.CrayXC40(), Profile: true},
				noise.Config{Seed: 1, Arrivals: arr, Duration: noise.Fixed(775 * us), Target: noise.AllNodes})
			if i == 0 && d == 0 {
				t.Errorf("%s under %v charged no detour", wl, arr)
			}
			charged[i] += d
		}
	}
	for i, d := range charged {
		if d == 0 {
			t.Errorf("%v charged no detour on any workload", arrivals[i])
		}
	}
	if detour("minife", 64, 15, Config{Net: netmodel.CrayXC40(), RanksPerNode: 4, Profile: true},
		noise.Config{Seed: 1, Arrivals: noise.Poisson(2000 * ms), Duration: noise.Fixed(50 * ms), Target: noise.AllNodes, RanksPerNode: 4}) == 0 {
		t.Error("minife four ranks to a node charged no detour")
	}
}

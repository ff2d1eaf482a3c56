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
	charged := make([]int64, len(arrivals))
	for _, wl := range tracegen.Names() {
		for i, arr := range arrivals {
			d := detourAtSize(t, wl, 128, arr)
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
	if detour(t, "minife", 64, 15, Config{Net: netmodel.CrayXC40(), RanksPerNode: 4, Profile: true},
		noise.Config{Seed: 1, Arrivals: noise.Poisson(2000 * ms), Duration: noise.Fixed(50 * ms), Target: noise.AllNodes, RanksPerNode: 4}) == 0 {
		t.Error("minife four ranks to a node charged no detour")
	}
}

// BenchmarkReferenceAtSize is TestReferenceAtSize's Poisson row at
// 2 048 ranks (lulesh at 1 728, a cube): the nine workloads, 4
// iterations, CEs on every node, each engine program against the
// reference interpreter, failing on the first difference. The event
// queue's geometry and the posted lists take different shapes at this
// size than at 128 ranks. It takes about 46 s, too long for the raced
// engine smoke, so it is a benchmark run once, as make engine-atsize
// does:
//
//	go test -run '^$' -bench ReferenceAtSize -benchtime 1x ./internal/loggopsim/
func BenchmarkReferenceAtSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wl := range tracegen.Names() {
			if detourAtSize(b, wl, 2048, noise.Poisson(20*ms)) == 0 {
				b.Errorf("%s at 2048 ranks charged no detour", wl)
			}
		}
	}
}

// detourAtSize holds the engine to the reference on workload wl at
// (about) ranks ranks and 4 iterations, under 775 µs CEs on every node
// from arrivals, and returns the detour charged.
func detourAtSize(tb testing.TB, wl string, ranks int, arrivals noise.Arrivals) int64 {
	tb.Helper()
	return detour(tb, wl, ranks, 4, Config{Net: netmodel.CrayXC40(), Profile: true},
		noise.Config{Seed: 1, Arrivals: arrivals, Duration: noise.Fixed(775 * us), Target: noise.AllNodes})
}

// detour holds the engine to the reference on workload wl at (about)
// ranks ranks and iters iterations and returns the detour charged.
func detour(tb testing.TB, wl string, ranks, iters int, cfg Config, nm noise.Config) int64 {
	tb.Helper()
	tr, err := tracegen.Generate(wl, tracegen.PreferredRanks(wl, ranks), iters, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return requireMatchesReference(tb, fuzzCase{tr: tr, cfg: cfg, noise: &nm}).Profile.Detour
}

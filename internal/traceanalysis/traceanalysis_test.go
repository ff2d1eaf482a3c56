package traceanalysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/collectives"
	"repro/internal/predict"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestEmptyTrace(t *testing.T) {
	if _, err := Analyze(&trace.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBasicCounts(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100), trace.Send(1, 1024, 0), trace.Allreduce(8), trace.Calc(100), trace.Allreduce(8)},
		{trace.Calc(300), trace.Recv(0, 1024, 0), trace.Allreduce(8), trace.Allreduce(8)},
	}}
	r, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ranks != 2 || r.Ops != 9 {
		t.Fatalf("ranks/ops = %d/%d", r.Ranks, r.Ops)
	}
	if r.CollectivesPerRank != 2 {
		t.Fatalf("collectives = %d, want 2", r.CollectivesPerRank)
	}
	// Rank 0: 200ns compute over 2 collectives -> 100ns interval.
	if r.SyncIntervalNanos != 100 {
		t.Fatalf("sync interval = %d, want 100", r.SyncIntervalNanos)
	}
	if r.MessagesPerRank != 0.5 {
		t.Fatalf("messages per rank = %v, want 0.5", r.MessagesPerRank)
	}
	if r.BytesPerRank != 512 {
		t.Fatalf("bytes per rank = %v, want 512", r.BytesPerRank)
	}
	if r.MeanMessageBytes != 1024 || r.MaxMessageBytes != 1024 {
		t.Fatalf("message sizes: mean %v max %d", r.MeanMessageBytes, r.MaxMessageBytes)
	}
}

// TestTotals: the exact totals tracegen -stats prints, on a ping-pong
// with one collective per rank.
func TestTotals(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100), trace.Send(1, 1024, 7), trace.Recv(1, 1024, 8), trace.Allreduce(8)},
		{trace.Calc(50), trace.Recv(0, 1024, 7), trace.Send(0, 1024, 8), trace.Allreduce(8)},
	}}
	r, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ranks != 2 || r.Ops != 8 {
		t.Fatalf("ranks/ops = %d/%d, want 2/8", r.Ranks, r.Ops)
	}
	if r.Sends != 2 || r.Recvs != 2 || r.Collectives != 2 {
		t.Fatalf("sends/recvs/collectives = %d/%d/%d, want 2/2/2", r.Sends, r.Recvs, r.Collectives)
	}
	if r.ComputeNanos != 150 || r.SendBytes != 2048 {
		t.Fatalf("compute/send bytes = %d/%d, want 150/2048", r.ComputeNanos, r.SendBytes)
	}
}

func TestImbalance(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100)},
		{trace.Calc(300)},
	}}
	r, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// mean 200, spread 200 -> 100%.
	if math.Abs(r.ComputeImbalancePct-100) > 1e-9 {
		t.Fatalf("imbalance = %v%%, want 100%%", r.ComputeImbalancePct)
	}
}

func TestSizeClasses(t *testing.T) {
	cases := map[int64]int{
		0: 0, 63: 0, 64: 1, 255: 1, 256: 2, 1023: 2,
		1024: 3, 4096: 4, 16384: 5, 65536: 6, 262144: 7, 1 << 30: 7,
	}
	for size, want := range cases {
		if got := sizeClass(size); got != want {
			t.Fatalf("sizeClass(%d) = %d, want %d", size, got, want)
		}
	}
	for i := 0; i < 8; i++ {
		if SizeClassLabel(i) == "" {
			t.Fatal("empty label")
		}
	}
	if !strings.Contains(SizeClassLabel(99), "99") {
		t.Fatal("out-of-range label")
	}
}

func TestCollectiveRate(t *testing.T) {
	r := &Report{SyncIntervalNanos: 50_000_000} // 50 ms
	if got := r.CollectiveRatePerSecond(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("rate = %v, want 20/s", got)
	}
	if (&Report{}).CollectiveRatePerSecond() != 0 {
		t.Fatal("no-collective rate not zero")
	}
}

func TestWorkloadCadencesMatchSpecs(t *testing.T) {
	// The analyzer's measured sync interval should match the spec-
	// derived value used by the predictor, within compute jitter.
	for _, name := range []string{"lulesh", "hpcg", "milc", "lammps-crack"} {
		n := tracegen.PreferredRanks(name, 16)
		tr, err := tracegen.Generate(name, n, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := tracegen.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(predict.SyncInterval(spec))
		got := float64(r.SyncIntervalNanos)
		if math.Abs(got-want)/want > 0.1 {
			t.Fatalf("%s: measured sync interval %v, spec-derived %v", name, got, want)
		}
	}
}

func TestSensitivityOrderingFromTraces(t *testing.T) {
	// lammps-crack synchronizes far more often than lammps-snap.
	rate := func(name string) float64 {
		tr, err := tracegen.Generate(name, 16, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		return r.CollectiveRatePerSecond()
	}
	if crack, snap := rate("lammps-crack"), rate("lammps-snap"); crack < 100*snap {
		t.Fatalf("crack rate %v not >> snap rate %v", crack, snap)
	}
}

func TestExpandedTraceAnalyzable(t *testing.T) {
	tr, err := tracegen.Generate("minife", 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Analyze(ex)
	if err != nil {
		t.Fatal(err)
	}
	if r.CollectivesPerRank != 0 {
		t.Fatal("expanded trace still reports collectives")
	}
	// Expansion adds messages.
	raw, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.MessagesPerRank <= raw.MessagesPerRank {
		t.Fatalf("expansion did not add messages: %v vs %v", r.MessagesPerRank, raw.MessagesPerRank)
	}
}

package due

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	ms   = int64(1000 * 1000)
	sec  = int64(1000 * 1000 * 1000)
	hour = 3600 * sec
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{NodeMTBF: 0, Nodes: 1},
		{NodeMTBF: 1, Nodes: 0},
		{NodeMTBF: 1, Nodes: 1, Checkpoint: -1},
		{NodeMTBF: 1, Nodes: 1, Restart: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSystemMTBFScales(t *testing.T) {
	c := Config{NodeMTBF: 1000 * hour, Nodes: 1000}
	if got := c.SystemMTBF(); got != float64(hour) {
		t.Fatalf("system MTBF = %v, want %v", got, float64(hour))
	}
}

func TestYoungInterval(t *testing.T) {
	// sqrt(2 * 60s * 3600s) = 657.2s
	got := YoungInterval(60*sec, float64(hour))
	want := math.Sqrt(2 * 60e9 * 3600e9)
	if math.Abs(float64(got)-want) > 1e6 {
		t.Fatalf("young interval %d, want ~%v", got, want)
	}
	if YoungInterval(0, 1) != 0 || YoungInterval(1, 0) != 0 {
		t.Fatal("degenerate young interval not zero")
	}
}

func TestDalyCloseToYoungForCheapCheckpoints(t *testing.T) {
	m := float64(100 * hour)
	delta := 10 * sec
	young := YoungInterval(delta, m)
	daly := DalyInterval(delta, m)
	rel := math.Abs(float64(daly-young)) / float64(young)
	if rel > 0.05 {
		t.Fatalf("daly %d vs young %d differ by %.1f%% for cheap checkpoints", daly, young, rel*100)
	}
}

func TestDalyClampsExpensiveCheckpoints(t *testing.T) {
	m := float64(60 * sec)
	if got := DalyInterval(40*sec, m); got != int64(m) {
		t.Fatalf("expensive checkpoint interval %d, want clamp to MTBF %v", got, m)
	}
}

func TestOptimalIntervalBeatsNeighbors(t *testing.T) {
	base := Config{NodeMTBF: 10000 * hour, Nodes: 1000, Checkpoint: 30 * sec, Restart: 60 * sec}
	optPct, err := base.ExpectedOverheadPct() // at Daly's optimum
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{0.25, 0.5, 2, 4} {
		altPct, err := base.overheadPct(int64(float64(DalyInterval(base.Checkpoint, base.SystemMTBF())) * factor))
		if err != nil {
			t.Fatal(err)
		}
		if altPct < optPct-0.01 {
			t.Fatalf("interval x%v beats the optimum: %v%% vs %v%%", factor, altPct, optPct)
		}
	}
}

func TestOverheadIncreasesWithFailureRate(t *testing.T) {
	mk := func(nodes int) float64 {
		c := Config{NodeMTBF: 50000 * hour, Nodes: nodes, Checkpoint: 60 * sec, Restart: 120 * sec}
		pct, err := c.ExpectedOverheadPct()
		if err != nil {
			t.Fatal(err)
		}
		return pct
	}
	small, large := mk(1000), mk(16384)
	if large <= small {
		t.Fatalf("16x nodes did not increase DUE overhead: %v%% vs %v%%", large, small)
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	c := Config{NodeMTBF: 20000 * hour, Nodes: 4096, Checkpoint: 60 * sec, Restart: 120 * sec}
	want, err := c.ExpectedOverheadPct()
	if err != nil {
		t.Fatal(err)
	}
	// Long run, several seeds: mean within a relative band. The closed
	// form slightly overestimates (it models a checkpoint after every
	// segment including the last).
	total := 0.0
	const seeds = 5
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := simulateDaly(c, 200*hour, seed)
		if err != nil {
			t.Fatal(err)
		}
		total += res.OverheadPct
	}
	got := total / seeds
	if math.Abs(got-want) > 0.35*want+1 {
		t.Fatalf("monte carlo %v%% vs closed form %v%%", got, want)
	}
}

func TestSimulateCountsEvents(t *testing.T) {
	c := Config{NodeMTBF: 1000 * hour, Nodes: 10000, Checkpoint: 30 * sec, Restart: 60 * sec}
	res, err := simulateDaly(c, 20*hour, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures over 20h at 6m system MTBF")
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints written")
	}
	if res.WallNanos <= 20*hour {
		t.Fatal("wall time not inflated")
	}
	if res.OverheadPct <= 0 {
		t.Fatalf("overhead %v", res.OverheadPct)
	}
}

func TestSimulateFailureFree(t *testing.T) {
	// Enormous MTBF: overhead is checkpoints only, tau/(tau+delta).
	c := Config{NodeMTBF: 1 << 62, Nodes: 1, Checkpoint: 10 * sec}
	res, err := c.simulate(100*sec, 1000*sec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures at near-infinite MTBF: %d", res.Failures)
	}
	// 1000s of work in 100s segments: 9 checkpoints (none after the
	// final segment), overhead = 90s/1000s = 9%.
	if res.Checkpoints != 9 {
		t.Fatalf("checkpoints = %d, want 9", res.Checkpoints)
	}
	if math.Abs(res.OverheadPct-9) > 0.01 {
		t.Fatalf("failure-free overhead %v%%, want 9%%", res.OverheadPct)
	}
}

// A zero checkpoint cost drives Daly's
// optimum to zero; this used to spin forever in the simulator's segmented
// loop. The config is one TestQuickSimulateSane actually drew.
func TestSimulateZeroCheckpointTerminates(t *testing.T) {
	c := Config{NodeMTBF: 46460 * hour, Nodes: 2604, Checkpoint: 0, Restart: 60 * sec}
	res, err := simulateDaly(c, hour, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallNanos < hour || res.OverheadPct < 0 {
		t.Fatalf("continuous-checkpoint result out of range: %+v", res)
	}
	// Failures cost only the restart: wall = work + failures*restart
	// plus nothing else, since no work is ever lost.
	want := hour + int64(res.Failures)*c.Restart
	if res.WallNanos != want {
		t.Fatalf("wall = %d, want work + failures*restart = %d", res.WallNanos, want)
	}
	pct, err := c.ExpectedOverheadPct()
	if err != nil {
		t.Fatal(err)
	}
	if pct < 0 || math.IsInf(pct, 0) || math.IsNaN(pct) {
		t.Fatalf("expected overhead = %v, want finite and non-negative", pct)
	}
}

func TestSimulateBadArgs(t *testing.T) {
	c := Config{NodeMTBF: hour, Nodes: 1}
	if _, err := simulateDaly(c, 0, 1); err == nil {
		t.Fatal("zero work accepted")
	}
	if _, err := simulateDaly(Config{}, hour, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	c := Config{NodeMTBF: 5000 * hour, Nodes: 8192, Checkpoint: 30 * sec, Restart: 60 * sec}
	a, err := simulateDaly(c, 10*hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateDaly(c, 10*hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// Property: overhead is non-negative and the simulator always
// terminates with done == work accounted in wall time.
func TestQuickSimulateSane(t *testing.T) {
	f := func(seed uint64, mtbfRaw, nodesRaw, ckptRaw uint16) bool {
		c := Config{
			NodeMTBF:   (int64(mtbfRaw) + 100) * hour,
			Nodes:      int(nodesRaw%8192) + 1,
			Checkpoint: int64(ckptRaw%120) * sec,
			Restart:    60 * sec,
		}
		res, err := simulateDaly(c, hour, seed)
		if err != nil {
			return false
		}
		return res.OverheadPct >= 0 && res.WallNanos >= hour
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package noise

import (
	"math"
	"testing"
	"testing/quick"
)

const (
	us = int64(1000)
	ms = int64(1000 * 1000)
	s  = int64(1000 * 1000 * 1000)
)

func TestNoneIsIdentity(t *testing.T) {
	var m None
	if got := m.Extend(3, 100, 50); got != 150 {
		t.Fatalf("None.Extend = %d, want 150", got)
	}
}

func TestFixedDuration(t *testing.T) {
	d := Fixed(42)
	if d.Sample(0) != 42 || d.Sample(99) != 42 {
		t.Fatal("Fixed sample wrong")
	}
	if d.Mean() != 42 {
		t.Fatal("Fixed mean wrong")
	}
}

func TestEveryNth(t *testing.T) {
	d := EveryNth{Base: 7 * ms, Extra: 500 * ms, N: 10}
	total := int64(0)
	for c := uint64(0); c < 100; c++ {
		total += d.Sample(c)
	}
	// 100 events: 100 * 7ms + 10 * 500ms
	want := 100*7*ms + 10*500*ms
	if total != want {
		t.Fatalf("EveryNth total over 100 events = %d, want %d", total, want)
	}
	if got, want := d.Mean(), float64(7*ms)+float64(500*ms)/10; got != want {
		t.Fatalf("EveryNth mean = %v, want %v", got, want)
	}
}

func TestEveryNthZeroN(t *testing.T) {
	d := EveryNth{Base: 5, Extra: 100, N: 0}
	if d.Sample(0) != 5 {
		t.Fatal("N=0 should never add Extra")
	}
	if d.Mean() != 5 {
		t.Fatal("N=0 mean should be Base")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Seed: 1, MTBCE: s, Duration: Fixed(ms), Target: AllNodes}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{MTBCE: 0, Duration: Fixed(1), Target: AllNodes},
		{MTBCE: -5, Duration: Fixed(1), Target: AllNodes},
		{MTBCE: s, Duration: nil, Target: AllNodes},
		{MTBCE: s, Duration: Fixed(1), Target: -7},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestNewCERejectsBadTarget(t *testing.T) {
	if _, err := NewCE(4, Config{Seed: 1, MTBCE: s, Duration: Fixed(1), Target: 4}); err == nil {
		t.Fatal("target beyond node count accepted")
	}
}

func TestLoadFactor(t *testing.T) {
	c := Config{MTBCE: 200 * ms, Duration: Fixed(133 * ms)}
	if got := c.LoadFactor(); math.Abs(got-0.665) > 1e-9 {
		t.Fatalf("LoadFactor = %v, want 0.665", got)
	}
}

func TestExtendDeterministic(t *testing.T) {
	mk := func() *CE {
		m, err := NewCE(8, Config{Seed: 7, MTBCE: 10 * ms, Duration: Fixed(ms), Target: AllNodes})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	tm := int64(0)
	for i := 0; i < 1000; i++ {
		ea := a.Extend(int32(i%8), tm, 5*ms)
		eb := b.Extend(int32(i%8), tm, 5*ms)
		if ea != eb {
			t.Fatalf("step %d: nondeterministic extension %d vs %d", i, ea, eb)
		}
		tm = ea
	}
	if a.Events() != b.Events() || a.Stolen() != b.Stolen() {
		t.Fatal("counters diverged")
	}
}

func TestExtendStatisticalRate(t *testing.T) {
	// Run a node busy for a long window; the number of charged events
	// should approximate window / MTBCE (since the node is always busy).
	mtbce := 10 * ms
	m, err := NewCE(1, Config{Seed: 3, MTBCE: mtbce, Duration: Fixed(10 * us), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	var tm int64
	work := int64(100 * s)
	end := m.Extend(0, tm, work)
	if end <= work {
		t.Fatal("no detours charged over a 100s busy window")
	}
	// The busy window is [0, end) in wall-clock; the expected count is
	// end/mtbce. 100s/10ms = 10000 base events.
	got := float64(m.Events())
	want := float64(end) / float64(mtbce)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("event count %v, want ~%v", got, want)
	}
	if m.Stolen() != int64(m.Events())*10*us {
		t.Fatalf("stolen %d != events*duration", m.Stolen())
	}
}

func TestIdleEventsNotCharged(t *testing.T) {
	// Work windows separated by huge idle gaps: the events arriving in
	// the gaps must not delay the work.
	m, err := NewCE(1, Config{Seed: 5, MTBCE: ms, Duration: Fixed(100 * ms), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny work separated by 10s gaps: probability a CE lands inside
	// any 1ns window is negligible.
	tm := int64(0)
	charged := uint64(0)
	for i := 0; i < 100; i++ {
		end := m.Extend(0, tm, 1)
		if end != tm+1 {
			charged++
		}
		tm = end + 10*s
	}
	if charged > 2 {
		t.Fatalf("idle-period CEs charged against work %d times", charged)
	}
}

func TestSingleNodeTargeting(t *testing.T) {
	m, err := NewCE(4, Config{Seed: 9, MTBCE: ms, Duration: Fixed(100 * us), Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Non-target nodes see no detours ever.
	for node := int32(0); node < 4; node++ {
		if node == 2 {
			continue
		}
		if end := m.Extend(node, 0, 100*s); end != 100*s {
			t.Fatalf("node %d extended despite targeting node 2", node)
		}
	}
	if end := m.Extend(2, 0, 100*s); end == 100*s {
		t.Fatal("target node saw no detours over 100s at 1ms MTBCE")
	}
}

func TestSaturationDetected(t *testing.T) {
	// Handling time 10x the MTBCE: the node can never finish; the model
	// must bail out and flag saturation rather than loop forever.
	m, err := NewCE(1, Config{Seed: 1, MTBCE: ms, Duration: Fixed(10 * ms), Target: AllNodes, SaturationFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	m.Extend(0, 0, s)
	if !m.Saturated() {
		t.Fatal("divergent configuration not flagged as saturated")
	}
}

func TestNoSaturationAtModestLoad(t *testing.T) {
	m, err := NewCE(1, Config{Seed: 1, MTBCE: 100 * ms, Duration: Fixed(ms), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	var tm int64
	for i := 0; i < 100; i++ {
		tm = m.Extend(0, tm, 10*ms)
	}
	if m.Saturated() {
		t.Fatal("1% load flagged as saturated")
	}
}

func TestSeedsChangeSchedule(t *testing.T) {
	mk := func(seed uint64) int64 {
		m, err := NewCE(1, Config{Seed: seed, MTBCE: ms, Duration: Fixed(ms), Target: AllNodes})
		if err != nil {
			t.Fatal(err)
		}
		return m.Extend(0, 0, s)
	}
	if mk(1) == mk(2) {
		t.Fatal("different seeds produced identical extensions over 1s")
	}
}

func TestNodesIndependent(t *testing.T) {
	m, err := NewCE(2, Config{Seed: 13, MTBCE: ms, Duration: Fixed(ms), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Extend(0, 0, s)
	b := m.Extend(1, 0, s)
	if a == b {
		t.Fatal("two nodes produced identical detour schedules")
	}
}

// Property: Extend never returns a time before start+dur, and is
// monotone in dur.
func TestQuickExtendLowerBound(t *testing.T) {
	f := func(seed uint64, durRaw uint32) bool {
		m, err := NewCE(1, Config{Seed: seed, MTBCE: ms, Duration: Fixed(10 * us), Target: AllNodes})
		if err != nil {
			return false
		}
		dur := int64(durRaw)
		return m.Extend(0, 0, dur) >= dur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a longer MTBCE (rarer errors) the same workload never
// finishes later in expectation; we check with a paired-seed comparison
// over a long window where the law of large numbers applies.
func TestRareErrorsHurtLess(t *testing.T) {
	total := func(mtbce int64) int64 {
		m, err := NewCE(1, Config{Seed: 17, MTBCE: mtbce, Duration: Fixed(ms), Target: AllNodes})
		if err != nil {
			t.Fatal(err)
		}
		return m.Extend(0, 0, 1000*s)
	}
	frequent := total(10 * ms)
	rare := total(10 * s)
	if rare >= frequent {
		t.Fatalf("rarer CEs produced more delay: %d vs %d", rare, frequent)
	}
}

func BenchmarkExtend(b *testing.B) {
	m, err := NewCE(1, Config{Seed: 1, MTBCE: ms, Duration: Fixed(10 * us), Target: AllNodes})
	if err != nil {
		b.Fatal(err)
	}
	var tm int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm = m.Extend(0, tm, 100*us)
	}
}

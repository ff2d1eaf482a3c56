package loggopsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// auditor is a noise model that charges no detour and cannot report its
// next arrival, so the engine consults it on every CPU interval of a
// run — sends, the receive that completes a handshake and the send a
// clear-to-send resumes included — and each time it checks the
// rendezvous records: every released one is zero and released once, and
// every one in flight holds the message of the trace its tag names,
// never fields of a message that had the index before it.
type auditor struct {
	t    *testing.T
	s    *Simulator
	sent map[int32]rdvMsg // every send of the trace by its tag
	// last is the tag each index last held; a record holding another
	// tag took a released index.
	last map[int32]int32
	// reused counts indices taken again, and reusedBeside those taken
	// while a rank's unexpected list held a rendezvous request.
	reused, reusedBeside int
}

func newAuditor(t *testing.T, s *Simulator, tr *trace.Trace) *auditor {
	t.Helper()
	a := &auditor{t: t, s: s, sent: map[int32]rdvMsg{}, last: map[int32]int32{}}
	for r, ops := range tr.Ops {
		for _, op := range ops {
			if op.Kind != trace.OpSend && op.Kind != trace.OpIsend {
				continue
			}
			if _, dup := a.sent[op.Tag]; dup {
				t.Fatalf("tag %d sent twice: the audit needs a tag per message", op.Tag)
			}
			a.sent[op.Tag] = rdvMsg{src: int32(r), dst: op.Peer, tag: op.Tag, size: op.Size}
		}
	}
	return a
}

func (a *auditor) Extend(_ int32, start, dur int64) int64 {
	a.audit("mid-run")
	return start + dur
}

// NextArrival returns math.MinInt64, so the audit runs on every CPU
// interval.
func (a *auditor) NextArrival(int32) int64 { return math.MinInt64 }

func (a *auditor) audit(when string) {
	a.t.Helper()
	s := a.s
	free := make([]bool, len(s.msgs))
	for _, i := range s.freeMsgs {
		if free[i] {
			a.t.Fatalf("%s: index %d released twice", when, i)
		}
		free[i] = true
		if s.msgs[i] != (rdvMsg{}) {
			a.t.Fatalf("%s: released record %d holds %+v", when, i, s.msgs[i])
		}
	}
	for i, m := range s.msgs {
		if free[i] {
			continue
		}
		want := a.sent[m.tag]
		if m.src != want.src || m.dst != want.dst || m.tag != want.tag || m.size != want.size {
			a.t.Fatalf("%s: record %d holds %+v, sent as %+v", when, i, m, want)
		}
		if last, seen := a.last[int32(i)]; seen && last != m.tag {
			a.reused++
			if a.rtsWaiting() {
				a.reusedBeside++
			}
		}
		a.last[int32(i)] = m.tag
	}
}

// rtsWaiting reports whether a rendezvous request waits in any rank's
// unexpected list.
func (a *auditor) rtsWaiting() bool {
	for r := range a.s.ranks {
		for _, u := range a.s.ranks[r].unexpected {
			if u.msg >= 0 {
				return true
			}
		}
	}
	return false
}

// requireAllZero fails unless every record msgs holds on to, in use or
// not, is zero.
func requireAllZero(t *testing.T, when string, s *Simulator) {
	t.Helper()
	for i, m := range s.msgs[:cap(s.msgs)] {
		if m != (rdvMsg{}) {
			t.Fatalf("%s: record %d holds %+v", when, i, m)
		}
	}
}

// TestNoRecordRetention: a rendezvous record is zeroed when its payload
// lands and its index goes back for the next send, which then holds its
// own message's fields only — checked on every CPU interval of runs
// that reuse indices, one of them the fuzz seed that reuses an index
// while another message's request waits unexpected. The audited runs
// match the unaudited ones; a run cut short by a deadlock leaves a
// record in flight, and the next run starts from zeroed ones. Part of
// engine-smoke.
func TestNoRecordRetention(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40()}
	cfg.Net.S = 4096
	rnd := rand.New(rand.NewSource(11))
	check := func(label string, tr *trace.Trace, cfg Config) *auditor {
		t.Helper()
		p, err := Compile(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s := p.NewSimulator()
		a := newAuditor(t, s, tr)
		got, err := s.Run(a)
		if err != nil {
			t.Fatalf("%s: audited run: %v", label, err)
		}
		requireIdentical(t, label+": audited run", want, got)
		if len(s.freeMsgs) != len(s.msgs) {
			t.Fatalf("%s: %d of %d records released after a complete run", label, len(s.freeMsgs), len(s.msgs))
		}
		a.audit(label + ": after the run")
		requireAllZero(t, label+": after the run", s)
		return a
	}
	reused := 0
	for i := 0; i < 20; i++ {
		reused += check("random", randomMatchedTrace(rnd, 2+rnd.Intn(6), 40), cfg).reused
	}
	if reused == 0 {
		t.Fatal("no random trace reused an index")
	}
	c := decodeFuzzCase([]byte(fuzzSeeds["reuse-beside-unexpected"]))
	if a := check("reuse-beside-unexpected", c.tr, c.cfg); a.reusedBeside == 0 {
		t.Fatal("reuse-beside-unexpected: no index was reused while a request waited unexpected")
	}

	// Cut short: records stay in flight until the next run's reset.
	tr := withUnmatchedRendezvous(randomMatchedTrace(rnd, 6, 40), cfg.Net)
	p, err := Compile(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSimulator()
	first, err := s.Run(nil)
	if err == nil || !first.Deadlocked {
		t.Fatalf("expected a deadlock, got %v", err)
	}
	if len(s.freeMsgs) == len(s.msgs) {
		t.Fatal("the cut run left no record in flight")
	}
	s.reset(nil)
	requireAllZero(t, "after the cut run's reset", s)
	again, err := s.Run(nil)
	if err == nil || !again.Deadlocked {
		t.Fatalf("expected a deadlock again, got %v", err)
	}
	requireIdentical(t, "cut run repeated", first, again)
}

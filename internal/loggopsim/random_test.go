package loggopsim

import (
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

// randomMatchedTrace builds a random trace whose sends and receives are
// guaranteed to match: for every message a send is appended to the
// sender and a receive to the receiver, with nonblocking variants and
// trailing waits, interleaved with compute.
func randomMatchedTrace(r *rand.Rand, ranks, messages int) *trace.Trace {
	tr := &trace.Trace{Name: "random", Ops: make([][]trace.Op, ranks)}
	reqs := make([]int32, ranks)
	pending := make([][]int32, ranks) // outstanding request ids per rank
	for m := 0; m < messages; m++ {
		src := r.Intn(ranks)
		dst := r.Intn(ranks)
		for dst == src {
			dst = r.Intn(ranks)
		}
		size := int64(r.Intn(16384)) // mixes eager and (with S lowered) rendezvous
		tag := int32(m)              // unique tags keep matching unambiguous
		if r.Intn(3) == 0 {
			tr.Ops[src] = append(tr.Ops[src], trace.Calc(int64(r.Intn(100000))))
		}
		if r.Intn(2) == 0 {
			tr.Ops[src] = append(tr.Ops[src], trace.Send(int32(dst), size, tag))
		} else {
			req := reqs[src]
			reqs[src]++
			tr.Ops[src] = append(tr.Ops[src], trace.Isend(int32(dst), size, tag, req))
			pending[src] = append(pending[src], req)
		}
		if r.Intn(2) == 0 {
			tr.Ops[dst] = append(tr.Ops[dst], trace.Recv(int32(src), size, tag))
		} else {
			req := reqs[dst]
			reqs[dst]++
			tr.Ops[dst] = append(tr.Ops[dst], trace.Irecv(int32(src), size, tag, req))
			pending[dst] = append(pending[dst], req)
		}
		// Occasionally drain outstanding requests mid-stream.
		if r.Intn(4) == 0 && len(pending[src]) > 0 {
			tr.Ops[src] = append(tr.Ops[src], trace.WaitAll())
			pending[src] = nil
		}
	}
	for rank := 0; rank < ranks; rank++ {
		if len(pending[rank]) > 0 {
			tr.Ops[rank] = append(tr.Ops[rank], trace.WaitAll())
		}
	}
	return tr
}

func TestRandomMatchedTracesComplete(t *testing.T) {
	net := netmodel.CrayXC40()
	net.S = 4096 // exercise both protocols
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		ranks := 2 + r.Intn(10)
		messages := 1 + r.Intn(60)
		tr := randomMatchedTrace(r, ranks, messages)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generated trace invalid: %v", seed, err)
		}
		res, err := Simulate(tr, Config{Net: net})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Messages != uint64(messages) {
			t.Fatalf("seed %d: delivered %d of %d messages", seed, res.Messages, messages)
		}
		// Makespan dominates every rank's finish time.
		for rank, f := range res.FinishTimes {
			if f > res.Makespan {
				t.Fatalf("seed %d: rank %d finish %d beyond makespan %d", seed, rank, f, res.Makespan)
			}
		}
	}
}

func TestRandomTracesNoiseMonotone(t *testing.T) {
	// Under CE noise, random matched traces never get faster, and the
	// run stays deterministic for a fixed noise seed.
	net := netmodel.CrayXC40()
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := randomMatchedTrace(r, 2+r.Intn(6), 1+r.Intn(30))
		clean, err := Simulate(tr, Config{Net: net})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mk := func() int64 {
			nm, err := noise.NewCE(tr.NumRanks(), noise.Config{
				Seed: uint64(seed) + 99, MTBCE: 10 * ms, Duration: noise.Fixed(100 * us), Target: noise.AllNodes,
			})
			if err != nil {
				t.Fatal(err)
			}
			return mustRun(t, tr, Config{Net: net}, nm).Makespan
		}
		a, b := mk(), mk()
		if a != b {
			t.Fatalf("seed %d: noisy run nondeterministic: %d vs %d", seed, a, b)
		}
		if a < clean.Makespan {
			t.Fatalf("seed %d: noise shortened makespan %d -> %d", seed, clean.Makespan, a)
		}
	}
}

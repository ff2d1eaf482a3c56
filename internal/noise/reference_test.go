package noise_test

// This file is package noise_test because faultmodel and loggopsim
// import noise; the reference comes in through export_test.go.

import (
	"reflect"
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// FuzzCEMatchesSharedReference holds a CE with k ranks to a node to the
// reference shared CE, call by call. The input decodes as
//
//	byte 0  k = 1 + b%4; bit 16 draws arrivals from the field-ddr4
//	        preset at MTBCE 5 ms instead of a Poisson process, and
//	        stretches the calls' time unit 32-fold so its CEs land
//	byte 1  rank count, 1 + b%12 (not always a multiple of k)
//	byte 2  seed
//	byte 3  bit 1: target node (b>>1) % nodes instead of every node
//	byte 4  the Poisson process's mean gap, (1 + b%32) µs
//	byte 5  duration: (b%64) × 50 ns, or with bit 128 every third CE
//	        paying 20 µs extra
//	byte 6  saturation factor, 1 + b%8 when bit 128 is set, else the
//	        default
//
// then up to 128 three-byte Extend calls: rank, idle time since the
// rank's last end (b units) and work (2b units), a unit being 250 ns,
// so each rank's intervals follow each other as the simulator's do.
// End times, Events
// and Stolen must agree until either model trips its saturation guard;
// after a trip the reference charges nothing more on any rank while CE
// goes on charging every interval but the tripping one.
func FuzzCEMatchesSharedReference(f *testing.F) {
	mix, err := systems.FaultMixByName("field-ddr4")
	if err != nil {
		f.Fatal(err)
	}
	proc, err := mix.Spec.WithMTBCE(5 * ms).Process()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"\x03\x08\x01\x00\x04\x10\x00" + "\x00\x10\x40\x01\x00\x40\x02\x08\x40\x03\x00\x40\x00\x02\x80",
		"\x11\x03\x05\x00\x00\x85\x00" + "\x00\x00\xff\x01\x10\xff\x00\x00\xff\x01\x04\xff\x00\x20\xff\x01\x00\xff\x00\x00\xff\x01\x00\xff",
		"\x01\x04\x09\x00\x00\x3f\x83" + "\x00\x00\xff\x01\x00\xff\x00\x00\xff\x01\x00\xff",
		"\x13\x07\x02\x03\x1f\x08\x00" + "\x04\x00\xc0\x05\x03\xc0\x04\x00\xc0\x05\x01\xff\x04\x00\xff\x05\x00\xff\x04\x08\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		k, ranks := 1+at(0)%4, 1+at(1)%12
		nodes := (ranks + k - 1) / k
		cfg := noise.Config{Seed: uint64(at(2)), Arrivals: noise.Poisson(int64(1+at(4)%32) * us),
			Duration: noise.Fixed(int64(at(5)%64) * 50), Target: noise.AllNodes, RanksPerNode: k}
		unit := int64(250)
		if at(0)&16 != 0 {
			cfg.Arrivals, unit = proc, 32*unit
		}
		if b := at(3); b&1 != 0 {
			cfg.Target = int32(b >> 1 % nodes)
		}
		if b := at(5); b&128 != 0 {
			cfg.Duration = noise.EveryNth{Base: int64(b%64) * 50, Extra: 20 * us, N: 3}
		}
		if b := at(6); b&128 != 0 {
			cfg.SaturationFactor = int64(1 + b%8)
		}
		ce, err := noise.NewCE(ranks, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := noise.NewSharedReference(nodes, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clock := make([]int64, ranks)
		for i := 7; i+2 < len(data) && i < 7+3*128; i += 3 {
			r := int32(int(data[i]) % ranks)
			start, dur := clock[r]+int64(data[i+1])*unit, 2*int64(data[i+2])*unit
			got, want := ce.Extend(r, start, dur), ref.Extend(r, start, dur)
			if ce.Saturated() || ref.Saturated() {
				return
			}
			if got != want {
				t.Fatalf("call %d, rank %d [%d, +%d): CE ends at %d, reference at %d", (i-7)/3, r, start, dur, got, want)
			}
			clock[r] = got
		}
		if ce.Events() != ref.Events() || ce.Stolen() != ref.Stolen() {
			t.Fatalf("CE charged %d events, %d ns; reference %d, %d ns", ce.Events(), ce.Stolen(), ref.Events(), ref.Stolen())
		}
	})
}

// TestEngineCEMatchesSharedReference runs whole simulations two and
// four ranks to a node under a CE and under the reference shared CE:
// the results, profiles and counters must be identical.
func TestEngineCEMatchesSharedReference(t *testing.T) {
	const ranks = 64
	var charged uint64
	for _, wl := range []string{"minife", "lulesh", "hpcg", "milc"} {
		tr, err := tracegen.Generate(wl, ranks, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := collectives.Expand(tr, collectives.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			p, err := loggopsim.Compile(flat, loggopsim.Config{Net: netmodel.CrayXC40(), RanksPerNode: k, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 4; seed++ {
				for _, target := range []int32{noise.AllNodes, 3} {
					cfg := noise.Config{Seed: seed, MTBCE: 200 * ms, Duration: noise.Fixed(5 * ms), Target: target, RanksPerNode: k}
					ce, err := noise.NewCE(ranks, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := noise.NewSharedReference(ranks/k, k, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.NewSimulator().Run(ce)
					if err != nil {
						t.Fatal(err)
					}
					want, err := p.NewSimulator().Run(ref)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) || ce.Events() != ref.Events() || ce.Stolen() != ref.Stolen() || ce.Saturated() != ref.Saturated() {
						t.Fatalf("%s, %d ranks per node, seed %d, target %d: CE makespan %d after %d events (%d ns), reference %d after %d (%d ns)",
							wl, k, seed, target, got.Makespan, ce.Events(), ce.Stolen(), want.Makespan, ref.Events(), ref.Stolen())
					}
					charged += ce.Events()
				}
			}
		}
	}
	if charged == 0 {
		t.Fatal("no run charged a detour; the comparison shows nothing")
	}
	t.Logf("%d detours charged over the grid", charged)
}

package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultmodel"
	"repro/internal/jobs"
	"repro/internal/noise"
	"repro/internal/systems"
)

// TestSimulateFaultMixEndToEnd submits a simulate request under a
// fault-mix preset and requires the served answer to equal a direct
// computation with the same mixture process — the service path must not
// perturb the mixture's schedules.
func TestSimulateFaultMixEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req := simReq()
	req.FaultMixPreset = "field-ddr4"

	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job %s: %s (%s)", sub.ID, state, errMsg)
	}
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.FaultMix, "faultmix(") {
		t.Fatalf("fault_mix label missing: %+v", res)
	}

	exp, err := core.NewExperiment(core.ExperimentConfig{
		Workload: req.Workload, Nodes: req.Nodes, Iterations: req.Iters, TraceSeed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := systems.FaultMixByName("field-ddr4")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := mix.Spec.WithMTBCE(req.MTBCENanos).Process()
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.RunRepeated(core.Scenario{
		MTBCE: req.MTBCENanos, Arrivals: proc,
		PerEvent: noise.Fixed(req.PerEventNanos),
		Target:   noise.AllNodes, Seed: req.Seed + 1,
	}, req.Reps)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := want.Sample.Summarize()
	if res.Slowdown == nil || res.Slowdown.MeanPct != wantSum.Mean || res.Slowdown.N != wantSum.N {
		t.Fatalf("served slowdown %+v != direct %+v", res.Slowdown, wantSum)
	}
	if res.FaultMix != proc.String() {
		t.Fatalf("fault_mix label %q != process %q", res.FaultMix, proc.String())
	}
}

func TestSimulateFaultMixValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	inline := &faultmodel.Spec{
		MTBCENanos: 20 * 1000 * 1000,
		Modes:      []faultmodel.Mode{{Kind: "cell", Weight: 1}},
	}
	cases := []struct {
		name     string
		mod      func(*SimulateRequest)
		wantFrag string
	}{
		{"both mix fields", func(r *SimulateRequest) {
			r.FaultMix = inline
			r.FaultMixPreset = "field-ddr4"
		}, "not both"},
		{"unknown preset", func(r *SimulateRequest) {
			r.FaultMixPreset = "nonesuch"
		}, "unknown fault mix"},
		{"mix mtbce and request mtbce", func(r *SimulateRequest) {
			r.FaultMix = inline
		}, "mtbce"},
		{"invalid inline mix", func(r *SimulateRequest) {
			r.MTBCENanos = 0
			r.FaultMix = &faultmodel.Spec{
				MTBCENanos: 20 * 1000 * 1000,
				Modes:      []faultmodel.Mode{{Kind: "cell", Weight: 0.5}},
			}
		}, "weights"},
	}
	for _, tc := range cases {
		req := simReq()
		tc.mod(&req)
		var e envelope.ErrorBody
		if code := postJSON(t, ts.URL+"/v1/simulate", req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (error %q)", tc.name, code, e.Error)
		} else if !strings.Contains(e.Error, tc.wantFrag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantFrag)
		}
	}
}

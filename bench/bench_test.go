package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeRun runs the bench's own entry point and returns the result line.
func smokeRun(t *testing.T, args ...string) (resultLine map[string]json.RawMessage, stdout string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("bench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &resultLine); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return resultLine, out.String()
}

// TestSmokeEveryWorkload drives every workload's generator, runner,
// checker, staged replay and probes at -smoke size, untraced and traced,
// through the same entry point the driver uses.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			line, _ := smokeRun(t, "--workload", name, "--seed", "1", "--seconds", "10", "--trace", "1", "-smoke", "-out", out)
			var metrics map[string]value
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			for _, def := range perLayer {
				v, ok := metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("traced result line: %s missing or in %q, want %q", def.Name, v.Unit, def.Unit)
				}
			}
			if len(metrics) != len(perLayer) {
				t.Errorf("traced result line carries %d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
			}
			if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
				t.Errorf("correct=%s failed=%s", line["correct"], line["failed"])
			}

			rep, err := readReport(filepath.Join(out, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checked == 0 {
				t.Error("no op's output was checked")
			}
			for _, def := range endToEnd {
				if v := rep.EndToEnd[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
					t.Errorf("%s = %v %q, want a positive value in %q", def.Name, v.Value, v.Unit, def.Unit)
				}
			}
			if _, err := os.Stat(rep.Trace); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if rep.SelfTime["op"].Count != rep.Attempted {
				t.Errorf("trace holds %d op spans for %d ops", rep.SelfTime["op"].Count, rep.Attempted)
			}
			if entries, _ := filepath.Glob(filepath.Join(out, "scratch-*")); len(entries) > 0 {
				t.Errorf("scratch data left behind: %v", entries)
			}
		})
	}
}

// TestUntracedResultLine checks the --trace 0 contract on the cheapest
// workload, at a seed without goldens so figure checks re-run cells.
func TestUntracedResultLine(t *testing.T) {
	line, _ := smokeRun(t, "--workload", wlFigureCells, "--seed", "2", "--seconds", "10", "--trace", "0", "-smoke", "-out", t.TempDir())
	var metrics map[string]value
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("untraced result line carries %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, def := range endToEnd {
		if v := metrics[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
			t.Errorf("%s = %v %q", def.Name, v.Value, v.Unit)
		}
	}
}

func TestFigureGoldenCoversTheMatrix(t *testing.T) {
	w := &figureCells{}
	if err := w.setup(context.Background(), &env{seed: 1, scale: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.cells {
		if len(w.golden[c.key()]) != 64 {
			t.Errorf("no golden hash for %s", c.key())
		}
	}
	if len(w.golden) != len(w.cells) {
		t.Errorf("golden holds %d cells, the matrix %d", len(w.golden), len(w.cells))
	}
}

func sampleReport(name string, scale float64) *report {
	r := &report{Workload: name, Seed: 1, Seconds: nominalSeconds, Comparable: true, Correct: true,
		EndToEnd: map[string]value{failedShare: {Unit: "ratio"}}, PerLayer: map[string]value{}}
	for _, def := range endToEnd {
		v := 100.0
		if def.Better == "higher" {
			v /= scale
		} else {
			v *= scale
		}
		r.EndToEnd[def.Name] = value{Value: v, Unit: def.Unit}
	}
	for _, c := range exactCounts {
		r.PerLayer[c] = value{Value: 1234, Unit: "count"}
	}
	return r
}

func TestCompare(t *testing.T) {
	base := map[string]*report{wlJobsSmall: sampleReport(wlJobsSmall, 1)}
	cases := []struct {
		name   string
		mutate func(r *report)
		want   int
	}{
		{"identical", func(*report) {}, 0},
		{"within every bound", func(r *report) { *r = *sampleReport(wlJobsSmall, 1.02) }, 0},
		{"worse than every bound", func(r *report) { *r = *sampleReport(wlJobsSmall, 1.5) }, 1},
		{"better", func(r *report) { *r = *sampleReport(wlJobsSmall, 0.5) }, 0},
		{"failed share rose", func(r *report) { r.EndToEnd[failedShare] = value{Value: 0.001} }, 1},
		{"exact count differs", func(r *report) { r.PerLayer[exactCounts[0]] = value{Value: 1235} }, 1},
		{"not correct", func(r *report) { r.Correct = false; r.Error = "guard" }, 1},
	}
	for _, c := range cases {
		b := sampleReport(wlJobsSmall, 1)
		c.mutate(b)
		var out bytes.Buffer
		if got := compareResults(base, map[string]*report{wlJobsSmall: b}, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}

	// A worsening past the bound but under the metric's absolute floor
	// is timer granularity, not a regression.
	small := sampleReport(wlJobsSmall, 1)
	small.EndToEnd["op_p50_ms"] = value{Value: 0.10, Unit: "ms"}
	worse := sampleReport(wlJobsSmall, 1)
	worse.EndToEnd["op_p50_ms"] = value{Value: 0.14, Unit: "ms"}
	var out bytes.Buffer
	if got := compareResults(map[string]*report{wlJobsSmall: small}, map[string]*report{wlJobsSmall: worse}, &out); got != 0 {
		t.Errorf("under the floor: exit %d, want 0\n%s", got, out.String())
	}
}

func TestNormalizeTraceFlag(t *testing.T) {
	got := strings.Join(normalize([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"}), " ")
	if want := "--workload x --trace=1 --seed 3 -trace"; got != want {
		t.Errorf("normalize = %q, want %q", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and spec.go one
// vocabulary.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the op lists are sized for %d", doc.RunSeconds, nominalSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || strings.Join(doc.Command, " ") != "go run ./bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec.go has %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, spec.go has %+v", i, m, d)
		}
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readResults loads a set of reports keyed by workload: an -out
// directory (every <workload>.json in it) or one <workload>.json.
func readResults(path string) (map[string]*report, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	all := map[string]*report{}
	if !st.IsDir() {
		r, err := readReport(path)
		if err != nil {
			return nil, err
		}
		all[r.Workload] = r
		return all, nil
	}
	for _, name := range workloadNames {
		r, err := readReport(filepath.Join(path, name+".json"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		all[name] = r
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%s holds no <workload>.json", path)
	}
	return all, nil
}

// worsening is how much worse b is than a, as a share of a: positive is
// worse, whichever direction is better for the metric.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// compare prints, per workload and end-to-end metric, both values, the
// relative difference with its base, and the bound; it returns non-zero
// when B is worse than A by more than a bound (past the metric's
// absolute floor), when failed_share rose, or when an exact count
// differs.
func compare(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]map[string]*report
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readResults(path); err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
	}
	return compareResults(sets[0], sets[1], stdout)
}

func compareResults(a, b map[string]*report, stdout io.Writer) int {
	regressions := 0
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A (base)", "B", "B vs A", "bound", "verdict")
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if ra == nil || rb == nil {
			continue
		}
		note := ""
		if !ra.Comparable || !rb.Comparable || ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.Smoke != rb.Smoke {
			note = " (different seed, size or load shape: not comparable)"
		}
		for _, def := range endToEnd {
			va, vb := ra.EndToEnd[def.Name].Value, rb.EndToEnd[def.Name].Value
			w := worsening(def, va, vb)
			verdict := "ok"
			diff := vb - va
			if diff < 0 {
				diff = -diff
			}
			switch {
			case w > def.Bound && diff > def.Floor:
				verdict = "WORSE"
				regressions++
			case w > def.Bound:
				verdict = "ok (under the absolute floor)"
			}
			pct := 0.0
			if va != 0 {
				pct = 100 * (vb - va) / va
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s%s\n",
				name, def.Name, va, vb, pct, 100*def.Bound, verdict, note)
		}
		fa, fb := ra.EndToEnd[failedShare].Value, rb.EndToEnd[failedShare].Value
		verdict := "ok"
		if fb > fa {
			verdict = "WORSE"
			regressions++
		}
		fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %9s %7s  %s\n", name, failedShare, fa, fb, "", "any", verdict)
		if !rb.Correct {
			fmt.Fprintf(stdout, "%-18s B is not correct: %s\n", name, rb.Error)
			regressions++
		}
		if ra.PerLayer == nil || rb.PerLayer == nil || note != "" {
			continue
		}
		for _, c := range exactCounts {
			if ca, cb := ra.PerLayer[c].Value, rb.PerLayer[c].Value; ca != cb {
				fmt.Fprintf(stdout, "%-18s %-26s %14.0f %14.0f  exact count differs\n", name, c, ca, cb)
				regressions++
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "no end-to-end metric is worse than its bound")
	return 0
}

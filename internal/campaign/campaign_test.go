package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/golden"
)

func tinyOptions() core.Options {
	return core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife"}}
}

func TestRunSubset(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := RunContext(context.Background(), Config{
		OutDir:  dir,
		Options: tinyOptions(),
		Only:    []string{"4"},
		Log:     &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	// table2 + fig4.
	if len(res.Artifacts) != 2 {
		t.Fatalf("artifacts = %d, want 2: %+v", len(res.Artifacts), res.Artifacts)
	}
	for _, want := range []string{"table2.txt", "table2.csv", "fig4.txt", "fig4.csv", "fig4.json", "MANIFEST.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s: %v", want, err)
		}
	}
	// Figures not selected are absent.
	if _, err := os.Stat(filepath.Join(dir, "fig5.txt")); err == nil {
		t.Fatal("unselected figure produced")
	}
	if !strings.Contains(log.String(), "fig4 done") {
		t.Fatalf("progress log missing: %q", log.String())
	}
	if got, want := res.Artifacts[0].Rows, len(core.Table2().Rows); got != want {
		t.Fatalf("manifest counts %d table2 rows, the table has %d", got, want)
	}
}

func TestRunJSONParsesBack(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fig, err := core.ReadFigureJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig4" || len(fig.Rows) == 0 {
		t.Fatalf("bad parsed figure: %s, %d rows", fig.ID, len(fig.Rows))
	}
}

// TestSurfaceArtifact: -only surface writes one surface per selected
// workload as text (the rendered heatmap), CSV and JSON, with one
// manifest row each.
func TestSurfaceArtifact(t *testing.T) {
	dir := t.TempDir()
	res, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: []string{"surface"}})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"MANIFEST.txt", "surface-minife.csv", "surface-minife.json", "surface-minife.txt", "table2.csv", "table2.txt"}
	if !slices.Equal(names, want) {
		t.Fatalf("wrote %v, want %v", names, want)
	}
	if len(res.Artifacts) != 2 || res.Artifacts[1].Name != "surface-minife" || len(res.Manifest.Rows) != 2 {
		t.Fatalf("artifacts %+v, %d manifest rows; want table2 and surface-minife", res.Artifacts, len(res.Manifest.Rows))
	}
	f, hm, err := core.Surface(context.Background(), tinyOptions(), "minife", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := hm.Render(&txt); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "surface-minife.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, txt.Bytes()) {
		t.Errorf("surface-minife.txt:\n%s\nwant the rendered heatmap:\n%s", got, txt.Bytes())
	}
	if res.Artifacts[1].Rows != len(f.Rows) {
		t.Errorf("manifest counts %d surface rows, the surface has %d", res.Artifacts[1].Rows, len(f.Rows))
	}
}

// TestWriteFailureFailsTheRun: an artifact that cannot be written fails
// the campaign, and no manifest claims a complete reproduction.
func TestWriteFailureFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "fig4.json")); err != nil {
		t.Fatal(err)
	}
	_, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}})
	if err == nil || !strings.Contains(err.Error(), "fig4") {
		t.Fatalf("err = %v, want the fig4 write failure", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.txt")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed campaign wrote MANIFEST.txt (stat err = %v)", err)
	}
}

func TestRunRequiresOutDir(t *testing.T) {
	if _, err := RunContext(context.Background(), Config{}); err == nil {
		t.Fatal("missing output dir accepted")
	}
}

// TestRunTable2Only: an id that names no figure or study fails the run
// before anything is written, even beside a valid one.
func TestRunTable2Only(t *testing.T) {
	for _, only := range [][]string{{"none-such"}, {"4", "fig5"}, {"10"}} {
		dir := t.TempDir()
		_, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: only})
		bad := only[len(only)-1]
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Fatalf("Only %q: err = %v, want one naming %q", only, err, bad)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("Only %q: rejected campaign wrote %v", only, entries)
		}
	}
}

// TestStudiesGolden runs the seven studies at seed 1 through the
// campaign and byte-compares each rendered table with testdata, the
// output of the benchmark harness they were moved out of. Every table
// that moved is reported, not just the first.
func TestStudiesGolden(t *testing.T) {
	dir := t.TempDir()
	var names []string
	for _, s := range studies {
		names = append(names, s.name)
	}
	res, err := RunContext(context.Background(), Config{OutDir: dir, Options: core.Options{Seed: 1}, Only: names})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) != 1+len(names) {
		t.Fatalf("artifacts = %+v, want table2 and the %d studies", res.Artifacts, len(names))
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join("testdata", name+".txt"), got)
	}
}

func TestManifestContents(t *testing.T) {
	dir := t.TempDir()
	res, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Manifest.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"table2", "fig4", "fig4.json"} {
		if !strings.Contains(out, want) {
			t.Fatalf("manifest missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Fatal("written manifest differs from returned manifest")
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{OutDir: dir, Options: tinyOptions()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("canceled campaign wrote artifacts: %v", entries)
	}
}

// cancelAfter cancels the context once the progress log mentions a
// marker, simulating a client abandoning a campaign mid-run.
type cancelAfter struct {
	marker string
	cancel context.CancelFunc
	buf    bytes.Buffer
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	if strings.Contains(c.buf.String(), c.marker) {
		c.cancel()
	}
	return len(p), nil
}

// TestCancelSiteMidSweepDiscardsPartials injects a cancellation inside
// the repetition loop — mid-sweep or mid-study, not between artifacts —
// and checks the aborted artifact leaves no partial files, the error
// surfaces as context.Canceled, and no worker goroutines are left
// behind.
func TestCancelSiteMidSweepDiscardsPartials(t *testing.T) {
	for _, tc := range []struct {
		only  string
		files []string
	}{
		{"4", []string{"fig4.txt", "fig4.csv", "fig4.json"}},
		{"ablation-noise-seeds", []string{"ablation-noise-seeds.txt", "ablation-noise-seeds.csv"}},
	} {
		t.Run(tc.only, func(t *testing.T) {
			t.Cleanup(faultinject.Disarm)
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			// Every repetition attempt observes context.Canceled;
			// cancellation must stop the run, not burn the retry budget.
			if err := faultinject.Arm(faultinject.Plan{
				faultinject.SiteRepetition: {Kind: faultinject.KindCancel, Probability: 1, Seed: 5},
			}); err != nil {
				t.Fatal(err)
			}
			_, err := RunContext(context.Background(), Config{OutDir: dir, Options: tinyOptions(), Only: []string{tc.only}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled from the injected cancel", err)
			}
			// The artifact before the sweep survives; the canceled one
			// left nothing partial on disk.
			if _, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil {
				t.Fatalf("pre-sweep artifact missing: %v", err)
			}
			for _, leftover := range append(tc.files, "MANIFEST.txt") {
				if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
					t.Fatalf("canceled run left %s behind", leftover)
				}
			}
			faultinject.Disarm()
			deadline := time.Now().Add(10 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= base+3 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// cancelMidRepetition runs the campaign on only with every repetition
// stalled for a minute, ends its context once one has started, and
// returns the output directory. The campaign must stop with
// context.Canceled within seconds.
func cancelMidRepetition(t *testing.T, only string) string {
	t.Helper()
	t.Cleanup(faultinject.Disarm)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: int64(time.Minute)},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for faultinject.Snapshot().Sites[0].Fired == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, Config{OutDir: dir, Options: tinyOptions(), Only: []string{only}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("campaign took %s to stop with every repetition stalled for a minute", took)
	}
	return dir
}

// TestRunContextCancelMidFigure: the campaign's context reaches inside
// a figure. With every repetition of fig4 stalled for a minute, ending
// the context stops the campaign within seconds and leaves nothing of
// the figure on disk.
func TestRunContextCancelMidFigure(t *testing.T) {
	dir := cancelMidRepetition(t, "4")
	for _, leftover := range []string{"fig4.txt", "fig4.csv", "fig4.json", "MANIFEST.txt"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
			t.Fatalf("canceled campaign left %s behind", leftover)
		}
	}
}

// TestRunContextCancelMidSurface: the context reaches inside a surface
// the same way, and no surface file or manifest is written.
func TestRunContextCancelMidSurface(t *testing.T) {
	dir := cancelMidRepetition(t, "surface")
	left, err := filepath.Glob(filepath.Join(dir, "surface-*"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.txt")); err == nil {
		left = append(left, "MANIFEST.txt")
	}
	if len(left) > 0 {
		t.Fatalf("canceled campaign left %v behind", left)
	}
}

func TestRunContextCancelMidCampaign(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &cancelAfter{marker: "table2 done", cancel: cancel}
	_, err := RunContext(ctx, Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}, Log: log})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The artifact finished before cancellation stays on disk; the
	// selected figure was never produced.
	if _, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil {
		t.Fatalf("pre-cancellation artifact missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4.txt")); err == nil {
		t.Fatal("figure produced after cancellation")
	}
}

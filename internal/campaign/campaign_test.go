package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

func tinyOptions() core.Options {
	return core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife"}}
}

func TestRunSubset(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := Run(Config{
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
}

func TestRunJSONParsesBack(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}}); err != nil {
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

func TestRunRequiresOutDir(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing output dir accepted")
	}
}

func TestRunTable2Only(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{OutDir: dir, Options: tinyOptions(), Only: []string{"none-such"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifacts) != 1 || res.Artifacts[0].Name != "table2" {
		t.Fatalf("artifacts: %+v", res.Artifacts)
	}
	if got, want := res.Artifacts[0].Rows, len(core.Table2().Rows); got != want {
		t.Fatalf("manifest counts %d table2 rows, the table has %d", got, want)
	}
}

func TestManifestContents(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}})
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
// the repetition loop — mid-sweep, not between artifacts — and checks
// the aborted figure leaves no partial files, the error surfaces as
// context.Canceled, and no worker goroutines are left behind.
func TestCancelSiteMidSweepDiscardsPartials(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	// Every repetition attempt in fig4 observes context.Canceled;
	// cancellation must stop the run, not burn the retry budget.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindCancel, Probability: 1, Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from the injected cancel", err)
	}
	// The artifact before the sweep survives; the canceled figure left
	// nothing partial on disk.
	if _, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil {
		t.Fatalf("pre-sweep artifact missing: %v", err)
	}
	for _, leftover := range []string{"fig4.txt", "fig4.csv", "fig4.json", "MANIFEST.txt"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
			t.Fatalf("canceled sweep left %s behind", leftover)
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
}

// TestRunContextCancelMidFigure: the campaign's context reaches inside
// a figure. With every repetition of fig4 stalled for a minute, ending
// the context stops the campaign within seconds and leaves nothing of
// the figure on disk.
func TestRunContextCancelMidFigure(t *testing.T) {
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
	_, err := RunContext(ctx, Config{OutDir: dir, Options: tinyOptions(), Only: []string{"4"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("campaign took %s to stop with every repetition stalled for a minute", took)
	}
	for _, leftover := range []string{"fig4.txt", "fig4.csv", "fig4.json", "MANIFEST.txt"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
			t.Fatalf("canceled campaign left %s behind", leftover)
		}
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

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/simcache"
)

// restart_recovery: one op is one cesimd boot over a crash image, timed
// from jobs.Recover through journal.Open, simcache.OpenStore, jobs.New
// and server.New, Server.Resubmit, Writer.Sync, CompactBefore and
// cluster.OpenCoordinator to "ready to listen". It is the durable tier
// read the other way — replay, scan, snapshot, compact — and the
// replay-side partner of jobs_small. Every boot gets a fresh, untimed
// copy of the image's journals; teardown (drain, close) is untimed too.
//
// The image is made during set-up from live instances, copied after
// Writer.Sync: a jobs WAL of finished small jobs plus accepted-but-
// unfinished simulate jobs, a result store of small sweep results, and
// a coordinator journal with one sweep half reported.

const (
	restartNominal  = 200
	restartSmoke    = 4
	imageFinished   = 4000
	imageUnfinished = 64
	imageResults    = 200
)

var imageFigures = []string{"4", "5"}

// imageSpec is the image's distributed sweep: small cells, so making
// the reported half's fragments costs little set-up.
func imageSpec(seed uint64) cluster.Spec {
	return cluster.Spec{Figures: imageFigures, Nodes: 8, Iterations: 2, Reps: 1, Seed: seed}
}

// manifest is what a boot over the image must recover.
type manifest struct {
	pending    []string // unfinished job ids, in acceptance order
	records    int      // jobs WAL records
	epoch      uint64   // coordinator epoch the image was written under
	unfinished int      // sweep cells without a reported fragment
	results    int      // result-store entries
}

type restart struct {
	e     *env
	n     int
	image string
	want  manifest
	boots int
	// result is the small sweep result the image's store holds copies of.
	result []byte

	steps   []bootSteps
	coord   []time.Duration
	appends float64
	syncs   float64
}

func (w *restart) setup(ctx context.Context, e *env) error {
	w.e = e
	w.n = e.count(restartNominal, restartSmoke)
	w.image = filepath.Join(e.dir, "image")
	finished, unfinished, results := imageFinished, imageUnfinished, imageResults
	if e.smoke {
		finished, results = 200, 20
	}
	if err := w.makeJobsWAL(ctx, finished, unfinished); err != nil {
		return fmt.Errorf("jobs WAL: %w", err)
	}
	if err := w.makeStore(ctx, results); err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	if err := w.makeCoordinator(ctx); err != nil {
		return fmt.Errorf("coordinator journal: %w", err)
	}
	return nil
}

// makeJobsWAL runs a journaled queue: finished no-op jobs carrying real
// simulate payloads, then jobs held open so their WAL history has no
// terminal record, and copies the WAL while they are still open.
func (w *restart) makeJobsWAL(ctx context.Context, finished, unfinished int) error {
	live := filepath.Join(w.e.dir, "live-wal")
	wal, err := journal.Open(live, journal.Options{})
	if err != nil {
		return err
	}
	q := jobs.New(jobs.Config{Capacity: daemonQueue, Retain: daemonRetain, Journal: wal, Log: quietLog()})
	spec := func(i int) (jobs.Spec, error) {
		payload, err := json.Marshal(smallRequest(w.e.seed, i))
		return jobs.Spec{Kind: "simulate", RequestID: fmt.Sprintf("r-%012x", i), Retries: 2, Payload: payload}, err
	}
	for i := 0; i < finished; i++ {
		s, err := spec(i)
		if err != nil {
			return err
		}
		id, err := q.SubmitSpec(s, func(context.Context) (any, error) { return nil, nil })
		if err == nil {
			_, _, err = q.Wait(ctx, id)
		}
		if err != nil {
			return err
		}
	}
	gate := make(chan struct{})
	held := func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	for i := 0; i < unfinished; i++ {
		s, err := spec(finished + i)
		if err != nil {
			return err
		}
		id, err := q.SubmitSpec(s, held)
		if err != nil {
			return err
		}
		w.want.pending = append(w.want.pending, id)
	}
	// Wait until every worker holds a job, so the number of "started"
	// records in the image does not depend on scheduling.
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	for st := q.Stats(); st.Running < st.Workers && st.Running < unfinished; st = q.Stats() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	if err := wal.Sync(ctx); err != nil {
		return err
	}
	w.want.records = int(wal.Stats().Appends)
	if err := copyDir(live, filepath.Join(w.image, "jobs-wal")); err != nil {
		return err
	}
	close(gate)
	if err := q.Drain(ctx); err != nil {
		return err
	}
	return wal.Close()
}

func (w *restart) makeStore(ctx context.Context, results int) error {
	f, err := core.Figure4(core.Options{Nodes: 8, Iterations: 2, Reps: 1, Seed: w.e.seed, Workloads: []string{"minife"}})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		return err
	}
	w.result = buf.Bytes()
	s, err := simcache.OpenStore(filepath.Join(w.image, "store"))
	if err != nil {
		return err
	}
	for i := 0; i < results; i++ {
		key := simcache.ResultKey("sweep", []byte(fmt.Sprintf(`{"figure":"4","seed":%d}`, i)))
		if err := s.Put(ctx, "", key, w.result); err != nil {
			return err
		}
	}
	w.want.results = results
	return nil
}

// makeCoordinator journals one sweep through the coordinator's public
// API — create, lease every cell, report every second one — and closes
// it, which syncs the journal.
func (w *restart) makeCoordinator(ctx context.Context) error {
	c, _, err := cluster.OpenCoordinator(ctx, cluster.Config{}, filepath.Join(w.image, "cluster-wal"))
	if err != nil {
		return err
	}
	sweep, cells, err := c.CreateSweep(imageSpec(w.e.seed))
	if err != nil {
		return err
	}
	worker, _ := c.Register("", "bench")
	for i := 0; i < cells; i++ {
		g, err := c.Lease(worker)
		if err != nil {
			return err
		}
		if g == nil {
			return fmt.Errorf("cell %d of %d was not leasable", i, cells)
		}
		if i%2 == 1 {
			w.want.unfinished++
			continue
		}
		opts := g.Spec.Options()
		opts.Workloads = []string{g.Cell.Workload}
		frag, err := core.Figures()[g.Cell.Figure](opts)
		if err != nil {
			return err
		}
		if err := c.Report(worker, sweep, g.Key, frag, ""); err != nil {
			return err
		}
	}
	w.want.epoch = c.Epoch()
	return c.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (w *restart) teardown()               {}
func (w *restart) begin()                  {}
func (w *restart) clients() int            { return 1 }
func (w *restart) sizes() (int, int)       { return (w.n + 9) / 10, w.n }
func (w *restart) deadline() time.Duration { return 10 * time.Second }

func (w *restart) do(ctx context.Context, _, i int, warm bool) (time.Duration, error) {
	// A fresh copy of the journals: a boot appends to and compacts them.
	// The result store is only read by a boot, so every boot shares it.
	w.boots++
	boot := filepath.Join(w.e.dir, fmt.Sprintf("boot-%d", w.boots))
	defer os.RemoveAll(boot)
	for _, sub := range []string{"jobs-wal", "cluster-wal"} {
		if err := copyDir(filepath.Join(w.image, sub), filepath.Join(boot, sub)); err != nil {
			return 0, err
		}
	}
	tr := w.e.tr
	if warm {
		tr = nil
	}

	start := time.Now()
	d, steps, err := assemble(ctx, filepath.Join(boot, "jobs-wal"), filepath.Join(w.image, "store"))
	if err != nil {
		return 0, err
	}
	defer d.close()
	t := time.Now()
	coord, crs, err := cluster.OpenCoordinator(ctx, cluster.Config{}, filepath.Join(boot, "cluster-wal"))
	if err != nil {
		return 0, err
	}
	defer coord.Close()
	end := time.Now()
	took := end.Sub(start)

	if tr != nil {
		root := tr.add("op", i, 0, -1, start, took)
		at := start
		for _, s := range []struct {
			name string
			d    time.Duration
		}{
			{"jobs.recover", steps.recover}, {"journal.open", steps.openWAL}, {"simcache.open_store", steps.openStore},
			{"server.new", steps.build}, {"server.resubmit", steps.resubmit}, {"journal.sync", steps.sync},
			{"journal.compact", steps.compact}, {"cluster.open_coordinator", end.Sub(t)},
		} {
			tr.add(s.name, i, 0, root, at, s.d)
			at = at.Add(s.d)
		}
		w.steps = append(w.steps, steps)
		w.coord = append(w.coord, end.Sub(t))
		js := d.wal.Stats()
		w.appends += float64(js.Appends)
		w.syncs += float64(js.Syncs)
	}

	// The recovered state must be the image's manifest.
	if len(d.pending) != len(w.want.pending) || steps.resubmitted != len(w.want.pending) {
		return 0, fmt.Errorf("%w: recovered %d unfinished jobs (%d resubmitted), image holds %d", errMismatch, len(d.pending), steps.resubmitted, len(w.want.pending))
	}
	for j, p := range d.pending {
		if p.ID != w.want.pending[j] {
			return 0, fmt.Errorf("%w: recovered job %d is %s, image holds %s", errMismatch, j, p.ID, w.want.pending[j])
		}
	}
	if d.replay.Records != w.want.records || d.replay.Quarantined != 0 || crs.Quarantined != 0 {
		return 0, fmt.Errorf("%w: replayed %d WAL records (%d+%d quarantined), image holds %d", errMismatch,
			d.replay.Records, d.replay.Quarantined, crs.Quarantined, w.want.records)
	}
	if got := d.store.Stats().Entries; got != w.want.results {
		return 0, fmt.Errorf("%w: store scan found %d results, image holds %d", errMismatch, got, w.want.results)
	}
	st := coord.StatusSnapshot()
	if coord.Epoch() != w.want.epoch+1 || len(st.Sweeps) != 1 || st.Sweeps[0].Total-st.Sweeps[0].Done != w.want.unfinished {
		return 0, fmt.Errorf("%w: coordinator recovered at epoch %d with %d sweeps, want epoch %d and %d unfinished cells",
			errMismatch, coord.Epoch(), len(st.Sweeps), w.want.epoch+1, w.want.unfinished)
	}
	return took, nil
}

// verify has nothing left to do: every boot checked itself against the
// manifest.
func (w *restart) verify(context.Context) (int, []int, error) { return w.n, nil, nil }

func (w *restart) layers(ctx context.Context, _ *pass, m metrics) error {
	pick := func(f func(bootSteps) time.Duration) time.Duration {
		v := make([]time.Duration, len(w.steps))
		for i, s := range w.steps {
			v[i] = f(s)
		}
		return median(v)
	}
	n := float64(len(w.steps))
	m["jobs.recover_ms"] = ms(pick(func(s bootSteps) time.Duration { return s.recover }))
	m["simcache.store_scan_ms"] = ms(pick(func(s bootSteps) time.Duration { return s.openStore }))
	m["server.resubmit_ms"] = ms(pick(func(s bootSteps) time.Duration { return s.resubmit }))
	m["journal.sync_ms"] = ms(pick(func(s bootSteps) time.Duration { return s.sync }))
	m["journal.compact_ms"] = ms(pick(func(s bootSteps) time.Duration { return s.compact }))
	m["cluster.open_coordinator_ms"] = ms(median(w.coord))
	m["cluster.unfinished_cells"] = float64(w.want.unfinished)
	m["journal.records_replayed"] = float64(w.want.records)
	m["journal.appends"] = w.appends / n
	m["journal.syncs"] = w.syncs / n

	// journal.Replay alone, without the jobs layer's record decoding.
	probe := filepath.Join(w.e.dir, "probe-replay")
	if err := copyDir(filepath.Join(w.image, "jobs-wal"), probe); err != nil {
		return err
	}
	t := time.Now()
	st, err := journal.Replay(ctx, probe, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	m["journal.replay_us_per_record"] = us(time.Since(t)) / float64(st.Records)

	scan := m["simcache.store_scan_ms"]
	if err := storeProbes(ctx, w.e.dir, 32, w.result, m); err != nil {
		return err
	}
	m["simcache.store_scan_ms"] = scan // the boot's scan of the image, not the probe's
	return nil
}

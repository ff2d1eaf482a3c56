package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

// Leaf probes of the service tier: direct timed calls into one layer's
// public functions, on scratch instances so the daemon's own counters
// stay what the pass made them.

// smallConfig is the negligible simulation jobs_small submits, and the
// resident key the cache probe hits.
var smallConfig = core.ExperimentConfig{Workload: "minife", Nodes: 8, Iterations: 2, TraceSeed: 1}

// jobRecord is a payload the size of a jobs WAL "accepted" record.
var jobRecord = []byte(`{"op":"accepted","id":"j000001-0123456789ab","kind":"simulate","request_id":"r-0123456789ab","retries":2,` +
	`"payload":{"workload":"minife","nodes":8,"iters":2,"mtbce_ns":200000000,"mode":"software-cmci","seed":1,"reps":1}}`)

func serviceProbes(ctx context.Context, dir string, m metrics) error {
	// journal: appends with the fsync batch out of the way, then the
	// fsync that every 64th append pays.
	w, err := journal.Open(filepath.Join(dir, "probe-wal"), journal.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	const appends, syncs = 4096, 16
	var appendErr error
	m["journal.append_us"] = us(timeLoop(appends, func() {
		if err := w.Append(ctx, jobRecord); err != nil {
			appendErr = err
		}
	}))
	var syncTotal time.Duration
	for i := 0; i < syncs && appendErr == nil; i++ {
		for j := 0; j < 64; j++ {
			if err := w.Append(ctx, jobRecord); err != nil {
				appendErr = err
			}
		}
		t := time.Now()
		if err := w.Sync(ctx); err != nil {
			appendErr = err
		}
		syncTotal += time.Since(t)
	}
	m["journal.sync_ms"] = ms(syncTotal / syncs)
	if err := w.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}

	// jobs: submit a no-op and wait for it, without a journal.
	q := jobs.New(jobs.Config{Log: quietLog()})
	var jobErr error
	m["jobs.submit_wait_us"] = us(timeLoop(4096, func() {
		id, err := q.SubmitSpec(jobs.Spec{Kind: "noop"}, func(context.Context) (any, error) { return nil, nil })
		if err == nil {
			_, _, err = q.Wait(ctx, id)
		}
		if err != nil {
			jobErr = err
		}
	}))
	if err := q.Drain(ctx); err != nil {
		return err
	}
	if jobErr != nil {
		return jobErr
	}

	// tenant: admission and release under the daemon's limits.
	reg := tenant.New(tenant.Config{Defaults: tenant.Limits{MaxJobs: daemonTenantJobs}})
	var admitErr error
	m["tenant.admit_ns"] = float64(timeLoop(1<<18, func() {
		release, err := reg.Admit("")
		if err != nil {
			admitErr = err
			return
		}
		release()
	}))
	if admitErr != nil {
		return admitErr
	}

	// simcache: a lookup of a resident baseline.
	c := simcache.New(daemonCacheBytes)
	if _, _, err := c.GetOrBuild(ctx, smallConfig); err != nil {
		return err
	}
	hits := true
	m["simcache.hit_us"] = us(timeLoop(1<<16, func() {
		if _, hit, err := c.GetOrBuild(ctx, smallConfig); err != nil || !hit {
			hits = false
		}
	}))
	if !hits {
		return fmt.Errorf("simcache probe: resident key missed")
	}
	return nil
}

// storeProbes times the result store's put, get and open-time scan on a
// scratch store holding n entries of the given payload.
func storeProbes(ctx context.Context, dir string, n int, payload []byte, m metrics) error {
	dir = filepath.Join(dir, "probe-store")
	s, err := simcache.OpenStore(dir)
	if err != nil {
		return err
	}
	keys := make([]string, n)
	t := time.Now()
	for i := range keys {
		keys[i] = simcache.ResultKey("sweep", []byte(fmt.Sprintf(`{"figure":"4","seed":%d}`, i)))
		if err := s.Put(ctx, "", keys[i], payload); err != nil {
			return err
		}
	}
	m["simcache.store_put_ms"] = ms(time.Since(t)) / float64(n)
	t = time.Now()
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			return fmt.Errorf("store probe: key %s missing after put", k)
		}
	}
	m["simcache.store_get_us"] = us(time.Since(t)) / float64(n)
	t = time.Now()
	if _, err := simcache.OpenStore(dir); err != nil {
		return err
	}
	m["simcache.store_scan_ms"] = ms(time.Since(t))
	return nil
}

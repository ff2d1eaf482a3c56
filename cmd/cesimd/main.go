// cesimd serves the CE-overhead simulator as an always-on HTTP/JSON
// service: a bounded job queue and worker pool execute simulate and
// sweep requests, a content-addressed cache memoizes noise-free
// baselines across requests, and /metrics exposes counters, latency
// histograms and cache effectiveness. See docs/SERVICE.md for the API.
//
// Examples:
//
//	cesimd -addr :8080
//	cesimd -addr :8080 -workers 4 -queue 128 -cache-mb 512 -job-timeout 10m
//	cesimd -allow-fault-injection -faults faults.json   # chaos drills only
//
// Cluster mode (see docs/CLUSTER.md): a coordinator shards campaign
// sweeps across joined workers and merges results bit-identically to a
// single-node run.
//
//	cesimd -addr :8080 -role coordinator
//	cesimd -addr :8081 -role worker -join http://coordinator:8080
//
//	curl -s localhost:8080/v1/systems | jq .
//	curl -s -X POST localhost:8080/v1/simulate -d \
//	  '{"workload":"lulesh","nodes":512,"system":"exascale-cielo-x10","mode":"firmware-emca"}'
//
// With -data-dir the daemon is durable (docs/DURABILITY.md): submitted
// jobs are journaled to a write-ahead log and re-enqueued under their
// original ids after a crash, sweep results persist in a
// content-addressed store, and a coordinator recovers its sweeps from
// a journal on restart, re-offering only unfinished cells.
//
//	cesimd -addr :8080 -data-dir /var/lib/cesimd
//	cesimd -addr :8080 -data-dir /var/lib/cesimd -tenant-rate 5 -tenant-disk-mb 256
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and
// running jobs finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/advise"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
		simWorkers   = flag.Int("sim-workers", 0, "per-job simulation fan-out (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "bounded queue capacity (submissions beyond it get 429)")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job deadline (0 = none)")
		retain       = flag.Int("retain", 512, "finished jobs kept for polling")
		cacheMB      = flag.Int("cache-mb", 256, "baseline cache bound in MiB")
		maxNodes     = flag.Int("max-nodes", 16384, "largest accepted node count")
		maxReps      = flag.Int("max-reps", 64, "largest accepted repetition count")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "shutdown grace for in-flight jobs")
		jobRetries   = flag.Int("job-retries", 2, "per-job retry budget for retryable failures (negative = none)")
		shedMark     = flag.Int("shed-watermark", 0, "queue depth at which new submissions get 503 (0 = disabled)")
		faultsPath   = flag.String("faults", "", "fault-injection plan (JSON); requires -allow-fault-injection")
		allowFaults  = flag.Bool("allow-fault-injection", false, "permit -faults (chaos drills; never in production)")
		advisor      = flag.Bool("advisor", true, "mount the mitigation advisor (/v1/advise, docs/ADVISOR.md)")
		advTenants   = flag.Int("advise-tenants", 1024, "advisor: max distinct tenants tracked")
		advNodes     = flag.Int("advise-nodes-per-tenant", 4096, "advisor: max tracked nodes per tenant")
		advBatch     = flag.Int("advise-batch", 10000, "advisor: max events per ingest batch")
		advCache     = flag.Int("advise-cache", 1024, "advisor: recommendation cache entries (negative = disabled)")
		advHalfLife  = flag.Duration("advise-half-life", 4*time.Hour, "advisor: estimator decay half-life")

		dataDir      = flag.String("data-dir", "", "durable state directory (job WAL, result store, coordinator journal; empty = in-memory only, docs/DURABILITY.md)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant sustained submissions/sec (0 = unlimited)")
		tenantBurst  = flag.Int("tenant-burst", 0, "per-tenant submission burst (0 = derived from -tenant-rate)")
		tenantJobs   = flag.Int("tenant-jobs", 0, "per-tenant in-flight job cap (0 = unlimited)")
		tenantDiskMB = flag.Int("tenant-disk-mb", 0, "per-tenant result-store footprint cap in MiB (0 = unlimited)")

		role       = flag.String("role", "standalone", "cluster role: standalone, coordinator, or worker")
		join       = flag.String("join", "", "coordinator URL to join (requires -role worker)")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "coordinator: shard lease TTL (heartbeat deadline)")
		stealAfter = flag.Duration("steal-after", 2*time.Second, "coordinator: how long a shard waits for its preferred worker")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "cesimd: ", log.LstdFlags)

	switch *role {
	case "", "standalone", "coordinator", "worker":
	default:
		logger.Fatalf("unknown -role %q (want standalone, coordinator or worker)", *role)
	}
	if *role == "worker" && *join == "" {
		logger.Fatal("-role worker requires -join <coordinator URL>")
	}
	if *role != "worker" && *join != "" {
		logger.Fatal("-join requires -role worker")
	}

	// Every value below would otherwise be logged as given and then
	// replaced by a default or ignored; only the zeros and negatives the
	// help text documents pass.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	const maxMiB = math.MaxInt64 >> 20
	for _, r := range []struct {
		flag string
		ok   bool
		want string
	}{
		{"workers", *workers >= 0, "must be 0 (GOMAXPROCS) or more"},
		{"sim-workers", *simWorkers >= 0, "must be 0 (GOMAXPROCS) or more"},
		{"queue", *queueDepth >= 1, "must be at least 1"},
		{"job-timeout", *jobTimeout >= 0, "must be 0 (none) or more"},
		{"retain", *retain >= 1, "must be at least 1"},
		{"cache-mb", *cacheMB >= 1 && int64(*cacheMB) <= maxMiB, fmt.Sprintf("must be in [1, %d]", maxMiB)},
		{"max-nodes", *maxNodes >= 1, "must be at least 1"},
		{"max-reps", *maxReps >= 1, "must be at least 1"},
		{"shed-watermark", *shedMark >= 0, "must be 0 (disabled) or more"},
		{"advise-tenants", *advTenants >= 1, "must be at least 1"},
		{"advise-nodes-per-tenant", *advNodes >= 1, "must be at least 1"},
		{"advise-batch", *advBatch >= 1, "must be at least 1"},
		{"advise-cache", *advCache != 0, "must be positive, or negative to disable"},
		{"advise-half-life", *advHalfLife > 0, "must be positive"},
		{"tenant-rate", *tenantRate >= 0, "must be 0 (unlimited) or more"},
		{"tenant-burst", *tenantBurst >= 0, "must be 0 (derived) or more"},
		{"tenant-burst", *tenantBurst == 0 || *tenantRate > 0, "requires -tenant-rate"},
		{"tenant-jobs", *tenantJobs >= 0, "must be 0 (unlimited) or more"},
		{"tenant-disk-mb", *tenantDiskMB >= 0 && int64(*tenantDiskMB) <= maxMiB, fmt.Sprintf("must be in [0 (unlimited), %d]", maxMiB)},
		{"lease-ttl", *leaseTTL > 0, "must be positive"},
		{"lease-ttl", !set["lease-ttl"] || *role == "coordinator", "requires -role coordinator"},
		{"steal-after", *stealAfter > 0, "must be positive"},
		{"steal-after", !set["steal-after"] || *role == "coordinator", "requires -role coordinator"},
	} {
		if !r.ok {
			logger.Fatalf("-%s %s %s", r.flag, flag.Lookup(r.flag).Value, r.want)
		}
	}
	if flag.NArg() > 0 {
		logger.Fatalf("unexpected argument %q", flag.Arg(0))
	}

	// Fault injection is opt-in twice over: the plan flag alone is an
	// error so a stray -faults can't chaos a production instance.
	if *faultsPath != "" && !*allowFaults {
		logger.Fatal("-faults requires -allow-fault-injection")
	}
	if *allowFaults && *faultsPath != "" {
		plan, err := faultinject.LoadPlan(*faultsPath)
		if err != nil {
			logger.Fatal(err)
		}
		if err := faultinject.Arm(plan); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("FAULT INJECTION ARMED from %s (%d sites) — results serve degraded-path drills, not production", *faultsPath, len(plan))
	}

	// The durable tier (docs/DURABILITY.md): a job WAL so a killed
	// daemon re-enqueues unfinished work, a content-addressed result
	// store so repeated sweeps re-serve stored bytes verbatim, and (for
	// a coordinator) a sweep journal so a restart re-offers only
	// unfinished cells. All three live under -data-dir and are absent
	// without it.
	var store *simcache.Store
	if *dataDir != "" {
		var err error
		store, err = simcache.OpenStore(filepath.Join(*dataDir, "store"))
		if err != nil {
			logger.Fatal(err)
		}
		ss := store.Stats()
		logger.Printf("result store: %d entries (%d bytes), %d quarantined at scan", ss.Entries, ss.SizeBytes, ss.Quarantined)
	}
	cache := core.NewExperimentCache(int64(*cacheMB) << 20)

	var tenants *tenant.Registry
	if *tenantRate > 0 || *tenantJobs > 0 || *tenantDiskMB > 0 {
		tenants = tenant.New(tenant.Config{Defaults: tenant.Limits{
			RatePerSec: *tenantRate,
			Burst:      *tenantBurst,
			MaxJobs:    *tenantJobs,
			DiskBytes:  int64(*tenantDiskMB) << 20,
		}})
	}

	// A coordinator mounts the cluster endpoints through the same
	// middleware stack as the simulate/sweep API, so shed, metrics and
	// request-id stamping apply to lease traffic too. With -data-dir it
	// recovers its sweeps from the journal and opens a new epoch.
	var routes map[string]http.HandlerFunc
	var coord *cluster.Coordinator
	if *role == "coordinator" {
		ccfg := cluster.Config{
			LeaseTTL:   *leaseTTL,
			StealAfter: *stealAfter,
		}
		if *dataDir != "" {
			var rst journal.ReplayStats
			var err error
			t := time.Now()
			coord, rst, err = cluster.OpenCoordinator(context.Background(), ccfg, filepath.Join(*dataDir, "cluster-wal"))
			if err != nil {
				logger.Fatal(err)
			}
			logger.Printf("coordinator recovered: %d journal records (%d bytes in %d ms, %d quarantined segments), epoch %d",
				rst.Records, rst.Bytes, time.Since(t).Milliseconds(), rst.Quarantined, coord.Epoch())
		} else {
			coord = cluster.NewCoordinator(ccfg)
		}
		routes = coord.Routes()
	}

	// The advisor is on by default: it holds only bounded in-memory
	// state and costs nothing until the first ingest.
	var adv *advise.Service
	if *advisor {
		adv = advise.NewService(advise.Config{
			Store: advise.StoreConfig{
				Estimator:         advise.EstimatorConfig{HalfLifeNanos: advHalfLife.Nanoseconds()},
				MaxTenants:        *advTenants,
				MaxNodesPerTenant: *advNodes,
			},
			MaxBatchEvents: *advBatch,
			CacheEntries:   *advCache,
		})
	}

	// start builds the job queue and the server over the job WAL (nil
	// without -data-dir).
	var (
		queue  *jobs.Queue
		srv    *server.Server
		jobWAL *journal.Writer
	)
	start := func(wal *journal.Writer) *server.Server {
		jobsCfg := jobs.Config{
			Workers:  *workers,
			Capacity: *queueDepth,
			Timeout:  *jobTimeout,
			Retain:   *retain,
			Log:      logger,
		}
		if wal != nil {
			jobsCfg.Journal = wal
		}
		queue = jobs.New(jobsCfg)
		var err error
		srv, err = server.New(server.Config{
			Queue:         queue,
			Cache:         cache,
			SimWorkers:    *simWorkers,
			MaxNodes:      *maxNodes,
			MaxReps:       *maxReps,
			JobRetries:    *jobRetries,
			ShedWatermark: *shedMark,
			Advisor:       adv,
			Routes:        routes,
			ResultStore:   store,
			Tenants:       tenants,
			Journal:       wal,
			Log:           logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		return srv
	}
	// With -data-dir the journaled jobs that never reached a terminal
	// state are re-enqueued under their original ids before the listener
	// opens — a client polling a pre-crash job id finds its job again.
	if *dataDir != "" {
		jobWAL, _, _ = restartJobs(context.Background(), logger, filepath.Join(*dataDir, "jobs-wal"), start)
	} else {
		start(nil)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A worker joins the coordinator and pulls shard leases alongside
	// its local API; both share the queue and baseline cache, so
	// consistent-hash placement delivers warm cache hits.
	var workerDone chan struct{}
	if *role == "worker" {
		cw, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: *join,
			Addr:        *addr,
			Queue:       queue,
			Cache:       cache,
			Log:         logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			if err := cw.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Printf("cluster worker stopped: %v", err)
			}
			st := cw.Stats()
			logger.Printf("cluster worker %s: %d shards done, %d failed, %d leases lost",
				st.ID, st.ShardsDone, st.ShardsFailed, st.LeasesLost)
		}()
	}

	serveErr := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (queue=%d, cache=%d MiB, job-timeout=%s)",
			*addr, *queueDepth, *cacheMB, *jobTimeout)
		serveErr <- hs.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		// Listen failure (e.g. port in use): nothing to drain.
		logger.Fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining (grace %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if workerDone != nil {
		<-workerDone // lease loop exits before the queue drains
	}
	if err := hs.Shutdown(dctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := queue.Drain(dctx); err != nil {
		logger.Printf("queue drain: %v (abandoning in-flight jobs)", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	if coord != nil {
		if err := coord.Close(); err != nil {
			logger.Printf("coordinator journal close: %v", err)
		}
	}
	if jobWAL != nil {
		if err := jobWAL.Close(); err != nil {
			logger.Printf("job WAL close: %v", err)
		}
	}

	st := queue.Stats()
	cs := cache.Stats()
	logger.Printf("done: %d jobs (%d ok, %d failed, %d canceled, %d retries, %d panics recovered), cache hit ratio %s",
		st.Submitted, st.Succeeded, st.Failed, st.Canceled, st.Retries, st.PanicsRecovered,
		fmt.Sprintf("%.2f", cs.HitRatio))
}

// restartJobs brings the job queue up over the WAL in dir through
// journal.Restart: replay the unfinished jobs, open the writer, have
// start build the queue and the server over it, and re-enqueue the jobs
// under their original ids, which re-journals their acceptances. A job
// Resubmit skipped (and logged) — the queue was full (submission never
// blocks, and a smaller -queue cannot hold what the crashed daemon
// held), or its payload no longer validates — has its pre-restart
// acceptance as its only record, so the pre-restart segments stay and
// the next restart recovers it again. It returns the writer, the
// recovered jobs and how many were re-enqueued.
func restartJobs(ctx context.Context, logger *log.Logger, dir string, start func(*journal.Writer) *server.Server) (*journal.Writer, []jobs.PendingJob, int) {
	var (
		pending     []jobs.PendingJob
		resubmitted int
		took        time.Duration
	)
	w, st, kept, err := journal.Restart(ctx, dir, func(ctx context.Context, dir string) (st journal.ReplayStats, err error) {
		t := time.Now()
		pending, st, err = jobs.Recover(ctx, dir)
		took = time.Since(t)
		return st, err
	}, func(w *journal.Writer) error {
		if resubmitted = start(w).Resubmit(pending); resubmitted < len(pending) {
			return fmt.Errorf("%d of %d recovered jobs not re-enqueued", len(pending)-resubmitted, len(pending))
		}
		return nil
	})
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("job WAL: recovered %d unfinished jobs (%d records, %d bytes in %d ms, %d quarantined segments, torn tail=%v)",
		resubmitted, st.Records, st.Bytes, took.Milliseconds(), st.Quarantined, st.TornTail)
	if kept != nil {
		logger.Printf("job WAL: %v, keeping pre-restart segments", kept)
	} else if n := w.Stats().Compacted; n > 0 {
		logger.Printf("job WAL: compacted %d pre-restart segments", n)
	}
	return w, pending, resubmitted
}

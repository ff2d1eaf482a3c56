package main

// The benchmark's fixed vocabulary: workload names, the end-to-end
// metrics (with the regression bounds -compare enforces) and the
// per-layer metrics a traced run fills. BENCHMARK.json at the repo
// root carries the same lists; bench_test.go fails when they drift.

// nominalSeconds is the run length the op-list sizes below are
// calibrated for (BENCHMARK.json "run_seconds"). -seconds scales every
// list linearly from it.
const nominalSeconds = 10

// Workload names, in run order.
const (
	wlFigureCells  = "figure_cells"
	wlSimulateCold = "simulate_cold"
	wlSimulateWarm = "simulate_warm"
	wlJobsSmall    = "jobs_small"
	wlAdvisorCycle = "advisor_cycle"
	wlRestart      = "restart_recovery"
)

var workloadNames = []string{
	wlFigureCells, wlSimulateCold, wlSimulateWarm, wlJobsSmall, wlAdvisorCycle, wlRestart,
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which an end-to-end
	// metric may worsen before -compare fails; 0 on per-layer metrics.
	Bound float64
	// Floor is the absolute difference below which a worsening is
	// ignored (timer granularity, not the program).
	Floor float64
}

// endToEnd lists what a user of the system sees. Every metric is
// defined on every workload. The bounds follow the run-to-run spread
// measured on the reference box (README.md), not a wish.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_kib_per_op", Unit: "KiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.2},
}

// failedShare is reported by every run and gated by -compare (any
// increase fails), but it is not in BENCHMARK.json's end_to_end list:
// it is 0 on every healthy run and the driver's contract carries it as
// the result line's "failed"/"attempted" pair instead.
const failedShare = "failed_share"

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer lists the single-layer metrics, named <module>.<metric>.
// A traced run reports all of them on every workload; a layer the
// workload never enters reads 0.
var perLayer = []metricDef{
	lower("tracegen.generate_ms", "ms"),
	lower("tracegen.ops_generated", "count"),
	lower("collectives.expand_ms", "ms"),
	lower("collectives.expanded_ops", "count"),
	higher("collectives.memo_hit_ratio", "ratio"),
	lower("loggopsim.baseline_ms", "ms"),
	lower("loggopsim.new_simulator_ms", "ms"),
	lower("loggopsim.run_ms", "ms"),
	lower("loggopsim.sim_events", "count"),
	lower("loggopsim.ns_per_event", "ns"),
	higher("loggopsim.sim_events_per_s", "1/s"),
	lower("noise.new_ce_us", "us"),
	lower("noise.ce_events", "count"),
	lower("noise.extend_calls", "count"),
	lower("noise.extend_ns_per_call", "ns"),
	lower("noise.share_of_run_est", "ratio"),
	lower("faultmodel.gap_ns_per_draw", "ns"),
	higher("faultmodel.events_per_s", "1/s"),
	lower("eventq.hold_ns_per_op", "ns"),
	lower("eventq.share_of_run_est", "ratio"),
	lower("rng.exp_ns_per_draw", "ns"),
	lower("rng.uint64_ns_per_draw", "ns"),
	lower("core.new_experiment_ms", "ms"),
	lower("core.run_rows_ms", "ms"),
	lower("core.rows", "count"),
	lower("core.saturated_rows", "count"),
	lower("core.render_ms", "ms"),
	higher("simcache.hit_ratio", "ratio"),
	lower("simcache.evictions", "count"),
	lower("simcache.bytes_resident", "MiB"),
	lower("simcache.hit_us", "us"),
	lower("simcache.store_scan_ms", "ms"),
	lower("simcache.store_put_ms", "ms"),
	lower("simcache.store_get_us", "us"),
	lower("journal.appends", "count"),
	lower("journal.syncs", "count"),
	lower("journal.append_us", "us"),
	lower("journal.sync_ms", "ms"),
	lower("journal.replay_us_per_record", "us"),
	lower("journal.compact_ms", "ms"),
	lower("journal.records_replayed", "count"),
	lower("jobs.queue_wait_ms", "ms"),
	lower("jobs.run_ms", "ms"),
	lower("jobs.submit_wait_us", "us"),
	lower("jobs.recover_ms", "ms"),
	lower("jobs.retries", "count"),
	lower("jobs.wal_errors", "count"),
	lower("server.submit_rtt_us", "us"),
	lower("server.poll_rtt_us", "us"),
	lower("server.polls_per_op", "count"),
	lower("server.poll_lag_ms", "ms"),
	lower("server.baseline_wall_ms", "ms"),
	lower("server.scenarios_wall_ms", "ms"),
	lower("server.resubmit_ms", "ms"),
	lower("server.non2xx", "count"),
	lower("tenant.admit_ns", "ns"),
	lower("advise.ingest_ms", "ms"),
	higher("advise.ingest_events_per_s", "1/s"),
	lower("advise.recommend_us", "us"),
	higher("advise.recommend_hit_ratio", "ratio"),
	lower("advise.apply_ns_per_event", "ns"),
	lower("advise.policy_us", "us"),
	lower("cluster.open_coordinator_ms", "ms"),
	lower("cluster.unfinished_cells", "count"),
	lower("process.peak_rss_mib", "MiB"),
	lower("process.gc_cycles", "count"),
	lower("process.gc_pause_ms", "ms"),
	lower("process.loadgen_cpu_share", "ratio"),
	lower("process.trace_overhead_pct", "%"),
}

// exactCounts are the per-layer counts that must repeat exactly
// between two runs of the same code at the same seed; -compare fails
// when they differ.
var exactCounts = []string{
	"tracegen.ops_generated", "collectives.expanded_ops", "loggopsim.sim_events",
	"noise.ce_events", "core.rows", "journal.records_replayed", "cluster.unfinished_cells",
}

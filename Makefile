GO ?= go

.PHONY: build test race lint staticcheck bench bench-smoke bench-pair cluster-smoke advisor-smoke crash-smoke faultmix-smoke engine-smoke engine-atsize chaos-smoke

# smoke runs the tests named exactly in $(1) (|-separated) from the
# packages $(2) under the race detector. Before the run, `go test -list`
# (once per package) must show every name, so a renamed or deleted test
# fails the target instead of silently dropping out of the smoke.
define smoke
@listed=$$(for p in $(2); do $(GO) test -list '^($(1))$$' $$p || exit 1; done) || exit 1; \
for t in $(subst |, ,$(1)); do \
	printf '%s\n' "$$listed" | grep -qx "$$t" || { echo "$@: no test named $$t in $(2)"; exit 1; }; \
done
$(GO) test -race -count=1 -run '^($(1))$$' $(2)
endef

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Whole-repo race gate: every package under the race detector, not
# just the targeted smokes. CI runs this as its own job. ./bench runs
# alone after the rest: its smoke gives each op a 10 s deadline, which
# the raced cold path misses on two CPUs shared with other packages.
race:
	$(GO) test -race -timeout 10m $$($(GO) list ./... | grep -v '^repro/bench$$')
	$(GO) test -race -timeout 10m ./bench

# Lint pipeline (docs/LINT.md), the one definition CI runs: vet with
# the lock-copy and atomic misuse analyzers called out explicitly (so a
# vet default change can never silently drop them), then full vet, then
# staticcheck when installed, then the repo's own ceslint suite, then
# the one-golden-flag check: internal/golden holds the only -update
# flag, and no test file defines its own.
lint:
	$(GO) vet -copylocks -atomic ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs the pinned version)"; \
	fi
	$(GO) run ./cmd/ceslint ./...
	@if grep -rnE --include='*_test.go' 'flag\.Bool(Var)?\([^)]*"update' .; then \
		echo "check and rewrite goldens with golden.Check and its one -update flag (internal/golden)" >&2; \
		exit 1; \
	fi

# staticcheck is version-pinned and run in CI (.github/workflows/ci.yml);
# locally it is optional because the toolchain-only sandbox cannot
# install it.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed; in a networked environment:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; \
		exit 1; }
	staticcheck ./...

bench:
	$(GO) test -run=XXX -bench=BenchmarkRepeatedRuns -benchtime=300x ./internal/core/
	$(GO) test -run=XXX -bench=BenchmarkColdExperiment -benchtime=5x ./internal/core/

# Benchmark smoke (bench/README.md): every workload of the repository's
# benchmark with its op list cut to a second or two and every output
# check on — at seed 1 that includes figure_cells against its committed
# sha256 goldens, at the benchmark's GOMAXPROCS=2. Measures nothing;
# it gates correctness of what the benchmark would measure.
bench-smoke:
	$(GO) run ./bench -all -smoke

# Paired parent-vs-change benchmark runs (tools/benchpair.sh): BASE
# built beside the working tree, PAIRS alternating-order pairs of
# WORKLOADS at SEED into out/pair-N/{parent,change}, `bench -compare`
# on each pair, then per-metric median, quartiles and pair wins.
# Allocation metrics gate (non-zero exit beyond the bound); time
# metrics are advisory on a shared box.
#   make bench-pair BASE=HEAD~1 WORKLOADS="simulate_cold figure_cells" PAIRS=10 SEED=7
BASE ?= HEAD
PAIRS ?= 10
SEED ?= 1
bench-pair:
	BASE="$(BASE)" PAIRS="$(PAIRS)" SEED="$(SEED)" $(if $(WORKLOADS),WORKLOADS="$(WORKLOADS)") tools/benchpair.sh

# In-process multi-node drill (docs/CLUSTER.md): coordinator + workers,
# bit-identity vs the sequential campaign, shard fault storm, worker
# kill mid-lease, cancellation mid-sweep — all under the race detector.
cluster-smoke:
	$(call smoke,TestDistributedCampaignBitIdentical|TestDistributedFaultMixBitIdentical|TestDistributedSweepUnderShardFaults|TestWorkerKillMidLeaseReassigned|TestCancelMidDistributedSweep|TestRequestIDsFlowThroughCluster,./internal/cluster/)

# Chaos smoke (docs/FAULTS.md): a fixed-seed fault plan over 50
# simulate jobs, a figure sweep and the baseline-cache fill, every
# result bit-identical to the fault-free run.
chaos-smoke:
	$(call smoke,TestInjectedFillFaults|TestSharedPathFillFaults|TestInjectedCancelStopsRun|TestChaosFiftyJobsBitIdentical|TestChaosSweepBitIdentical|TestAdviseIngestChaos,./internal/core/ ./internal/server/)

# Advisor smoke (docs/ADVISOR.md): boot the daemon stack, ingest the
# canned NDJSON CE stream, and require the recommendation to match the
# committed golden byte-for-byte — plus the permuted-ingest determinism
# and ingest-fault chaos drills. Regenerate the golden after an
# intentional policy change with the one -update flag (internal/golden):
#   go test ./examples/... ./cmd/retiresim ./internal/core ./internal/campaign ./internal/server ./docs -run Golden -update
advisor-smoke:
	$(call smoke,TestAdvisorSmokeGolden|TestAdviseIngestChaos,./internal/server/)
	$(call smoke,TestRecommendDeterminismPermutedBatches|TestRecommendIndependentOfQueryHistory,./internal/advise/)

# Fault-mix smoke (docs/FAULTMODEL.md): a fixed-seed run of the two
# fault-mix figures byte-compared against the committed golden, the
# rerun bit-identity drill, the mixture determinism contract (permuted
# mode order, concurrent runs sharing one Process through their own
# CEs) and a dropped run's mixture state being collected, under the
# race detector. Regenerate the golden after an intentional model change
# with the one -update flag (internal/golden):
#   go test ./examples/... ./cmd/retiresim ./internal/core ./internal/campaign ./internal/server ./docs -run Golden -update
faultmix-smoke:
	$(call smoke,TestFaultMixSmokeGolden|TestFaultMixFiguresBitIdentical,./internal/core/)
	$(call smoke,TestPermutedModesBitIdentical|TestDeterministicReplay|TestProcessSharedAcrossGoroutines|TestAppendGapsMatchesNextGap|TestGeneratorMatchesProcessSchedule,./internal/faultmodel/)
	$(call smoke,TestRunArrivalStateIsCollected|TestCEWithBurstyArrivals,./internal/noise/)
	$(call smoke,TestClosedLoopClassification|TestClosedLoopTransientDegradesToBank,./internal/advise/)

# Engine smoke (docs/MODEL.md "Engine internals"): the figure matrix
# and raw run results byte-compared against the golden recorded from
# the pre-rework engine paths before they were deleted, the overhead
# surface against the golden recorded from its last hand-written driver,
# every figure byte-identical at GOMAXPROCS 1, 2 and 8, the process-wide
# experiment memo (one build per configuration, concurrent figures
# coalescing onto one build, its bound), a figure and a
# running sweep job cancelled mid-repetition, the rank-at-a-time
# lowering against Compile(Expand(Generate)), a deadlock and the
# handshake count inside shared exchanges, one compiled program run
# by many goroutines, the ladder queue against the reference heap and
# the calendar queue it replaced (randomized and on the engine's three
# load shapes), and the two memory contracts of the pooled queue — it
# holds its peak population, and a cached run state stops growing after
# its first perturbed seed — under the race detector. Regenerate a golden after an
# intentional model change with the one -update flag (internal/golden):
#   go test ./examples/... ./cmd/retiresim ./internal/core ./internal/campaign ./internal/server ./docs -run Golden -update
ENGINE_SMOKE_RUN := TestEngineGolden|TestSurfaceGolden|TestFiguresBitIdenticalAcrossGOMAXPROCS|TestRunFigureCancelMidFigure|TestDefaultProviderBuildsEachConfigOnce|TestConcurrentFiguresCoalesce|TestExperimentMemoBounded|TestCancelRunningSweep|TestStreamedLoweringMatchesStaged|TestDeadlockInsideSharedExchangeNamesTraceOp|TestDeadlockInSegmentOfAnotherRankNamesFlatOp|TestRepetitionAllocatesConstantObjects|TestExchangeReleasingEarlierSendStaysInline|TestProgramSharedAcrossGoroutines|TestQueueMatchesReferences|TestLoadShapesMatchReferences|TestQueueMemoryTracksPeakPopulation|TestRunStateStopsGrowingAcrossSeeds|TestFirstRunGrowsNothingTheProgramCounted|TestNoRecordRetention|TestReferenceAtSize
engine-smoke:
	$(call smoke,$(ENGINE_SMOKE_RUN),./internal/core/ ./internal/server/ ./internal/loggopsim/ ./internal/eventq/)

# Engine at size (docs/MODEL.md "Engine internals"): the engine against
# the reference interpreter on the nine workloads at 2 048 ranks, where
# the event queue's geometry and the posted lists differ from the 128
# ranks TestReferenceAtSize covers in engine-smoke. About 30 s without
# the race detector, so a benchmark run once: it fails on the first
# difference from the reference. A benchmark that matches nothing
# would pass silently, so `go test -list` must show it first.
engine-atsize:
	@$(GO) test -list '^BenchmarkReferenceAtSize$$' ./internal/loggopsim/ | grep -qx BenchmarkReferenceAtSize || \
		{ echo "engine-atsize: no BenchmarkReferenceAtSize in ./internal/loggopsim/"; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkReferenceAtSize$$' -benchtime 1x ./internal/loggopsim/

# Kill-and-restart acceptance (docs/DURABILITY.md): build the real
# cesimd binary, SIGKILL it mid-campaign (standalone with a journaled
# sweep in flight, and a coordinator mid-sweep with a live worker),
# restart over the same -data-dir, and require the recovered results to
# be bit-identical to a direct sequential computation. Require a
# worker's job WAL, crashed with a leased shard in flight, and a job WAL
# holding a job whose payload no longer validates, to compact on every
# restart. Then restart the jobs WAL and the coordinator
# journal at every record boundary of a canned log (and mid-record, and
# with the restart's appends failing), and check a worker minted after
# a coordinator restart never takes the id of one from the epoch before.
crash-smoke:
	$(call smoke,TestCrashSmokeStandalone|TestCrashSmokeCoordinator|TestWorkerCrashMidShardRestartsCompact|TestUnrebuildableJobFailsAndRestartCompacts,./cmd/cesimd/)
	$(call smoke,TestJobsRestartAtEveryRecordBoundary|TestCoordinatorRestartAtEveryRecordBoundary|TestMintedWorkerIDsUniqueAcrossRestart,./internal/jobs/ ./internal/cluster/)

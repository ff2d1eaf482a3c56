GO ?= go

.PHONY: build test race lint staticcheck bench bench-smoke bench-pair cluster-smoke advisor-smoke crash-smoke faultmix-smoke engine-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Whole-repo race gate: every package under the race detector, not
# just the targeted smokes. CI runs this as its own job.
race:
	$(GO) test -race -timeout 10m ./...

# Lint pipeline (docs/LINT.md): vet with the lock-copy and atomic
# misuse analyzers called out explicitly (so a vet default change can
# never silently drop them), then full vet, then staticcheck when
# installed, then the repo's own ceslint suite.
lint:
	$(GO) vet -copylocks -atomic ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs the pinned version)"; \
	fi
	$(GO) run ./cmd/ceslint ./...

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
	$(GO) test -run=XXX -bench=BenchmarkRepeatedRuns -benchtime=300x .
	$(GO) test -run=XXX -bench=BenchmarkColdExperiment -benchtime=5x .

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
	$(GO) test -race -count=1 -run 'TestDistributed|TestWorkerKillMidLease|TestCancelMidDistributedSweep|TestRequestIDsFlowThroughCluster' ./internal/cluster/

# Advisor smoke (docs/ADVISOR.md): boot the daemon stack, ingest the
# canned NDJSON CE stream, and require the recommendation to match the
# committed golden byte-for-byte — plus the permuted-ingest determinism
# and ingest-fault chaos drills. Regenerate the golden after an
# intentional policy change with:
#   go test -run TestAdvisorSmokeGolden ./internal/server/ -update-advisor-golden
advisor-smoke:
	$(GO) test -race -count=1 -run 'TestAdvisorSmokeGolden|TestAdviseIngestChaos' ./internal/server/
	$(GO) test -race -count=1 -run 'TestRecommendDeterminismPermutedBatches|TestRecommendIndependentOfQueryHistory' ./internal/advise/

# Fault-mix smoke (docs/FAULTMODEL.md): a fixed-seed run of the two
# fault-mix figures byte-compared against the committed golden, the
# rerun bit-identity drill, the mixture determinism contract (permuted
# mode order, concurrent runs sharing one Process through their own
# CEs) and a dropped run's mixture state being collected, under the
# race detector. Regenerate the golden after an intentional model change:
#   go test -run TestFaultMixSmokeGolden ./internal/core/ -update-faultmix-golden
faultmix-smoke:
	$(GO) test -race -count=1 -run 'TestFaultMixSmokeGolden|TestFaultMixFiguresBitIdentical' ./internal/core/
	$(GO) test -race -count=1 -run 'TestPermutedModesBitIdentical|TestDeterministicReplay|TestProcessSharedAcrossGoroutines|TestAppendGapsMatchesNextGap|TestGeneratorMatchesProcessSchedule' ./internal/faultmodel/
	$(GO) test -race -count=1 -run 'TestRunArrivalStateIsCollected|TestCEWithBurstyArrivals' ./internal/noise/
	$(GO) test -race -count=1 -run 'TestClosedLoop' ./internal/advise/

# Engine smoke (docs/MODEL.md "Engine internals"): the figure matrix
# and raw run results byte-compared against the golden recorded from
# the pre-rework engine paths before they were deleted, the overhead
# surface against the golden recorded from its last hand-written driver,
# every figure byte-identical at GOMAXPROCS 1, 2 and 8, a figure and a
# running sweep job cancelled mid-repetition, the rank-at-a-time
# lowering against Compile(Expand(Generate)), one compiled program run
# by many goroutines, the calendar queue against the reference heap,
# and the two memory contracts of the pooled queue — it holds its peak
# population, and a cached run state stops growing after its first
# perturbed seed — under the race detector. Regenerate a golden after an
# intentional model change:
#   go test -run TestEngineGolden ./internal/core/ -update-engine-golden
#   go test -run TestSurfaceGolden ./internal/core/ -update-surface-golden
engine-smoke:
	$(GO) test -race -count=1 -run 'TestEngineGolden|TestSurfaceGolden|TestFiguresBitIdenticalAcrossGOMAXPROCS|TestRunFigureCancelMidFigure|TestCancelRunningSweep|TestStreamedLoweringMatchesStaged|TestProgramSharedAcrossGoroutines|TestCalendarMatchesHeap|TestQueueMemoryTracksPeakPopulation|TestRunStateStopsGrowingAcrossSeeds' ./internal/core/ ./internal/server/ ./internal/loggopsim/ ./internal/eventq/

# Kill-and-restart acceptance (docs/DURABILITY.md): build the real
# cesimd binary, SIGKILL it mid-campaign (standalone with a journaled
# sweep in flight, and a coordinator mid-sweep with a live worker),
# restart over the same -data-dir, and require the recovered results to
# be bit-identical to a direct sequential computation. Then restart the
# jobs WAL and the coordinator journal at every record boundary of a
# canned log (and mid-record, and with the restart's appends failing),
# and check a worker minted after a coordinator restart never takes the
# id of one from the epoch before.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashSmoke' ./cmd/cesimd/
	$(GO) test -race -count=1 -run 'RestartAtEveryRecordBoundary|TestMintedWorkerIDsUniqueAcrossRestart' ./internal/jobs/ ./internal/cluster/

#!/usr/bin/env bash

# ************************************
# bench/run.sh: scripted benchmark harness
# ************************************
# One workload per tick, a time limit per tick, a fixed output
# directory. Run it from the repository root:
#
#   bench/run.sh                 every workload, untraced, seed 1
#   bench/run.sh trace           every workload, untraced then traced
#   bench/run.sh smoke           every workload at -smoke size
#   bench/run.sh compare A B     compare two output directories
#
# Each tick writes $OUT_DIR/<workload>.json (and <workload>.trace.json
# when traced); hardware, go version, GOMAXPROCS and the commit are
# recorded inside every JSON. The script exits non-zero if any tick
# failed or ran out of time.
# ************************************

# variables you might change often

SEED="${SEED:-1}"                          # workload seed; the same seed gives the same inputs
RUN_SECONDS="${RUN_SECONDS:-10}"           # run length the op lists are sized for
OUT_DIR="${OUT_DIR:-bench/out}"            # fixed output location
TICK_TIMEOUT="${TICK_TIMEOUT:-240}"        # seconds; the limit of *one* tick, not of the whole loop
WORKLOADS="${WORKLOADS:-figure_cells simulate_cold simulate_warm jobs_small advisor_cycle restart_recovery}"

# unimportant variables (but do not change, ofc)

BIN="$OUT_DIR/bench.bin"
okMsg="[ok]"
errorMsg="[error]"

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "$errorMsg run bench/run.sh from the repository root" >&2
	exit 2
fi

mode="${1:-run}"
extra=""
case "$mode" in
	run) ;;
	trace) extra="-trace" ;;
	smoke) extra="-smoke" ;;
	compare)
		exec go run ./bench -compare "$2" "$3"
		;;
	*)
		echo "usage: bench/run.sh [run|trace|smoke|compare A B]" >&2
		exit 2
		;;
esac

mkdir -p "$OUT_DIR"
go build -o "$BIN" ./bench || exit 1
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

failed=""
for w in $WORKLOADS; do
	echo "[tick] $w (limit ${TICK_TIMEOUT}s)"
	# shellcheck disable=SC2086
	if timeout "$TICK_TIMEOUT" "$BIN" -workload "$w" -seed "$SEED" -seconds "$RUN_SECONDS" \
		-timeout "${TICK_TIMEOUT}s" -out "$OUT_DIR" $extra; then
		echo "$okMsg $w"
	else
		echo "$errorMsg $w failed or exceeded ${TICK_TIMEOUT}s" >&2
		failed="$failed $w"
	fi
done
rm -f "$BIN"

if [ -n "$failed" ]; then
	echo "$errorMsg failed ticks:$failed" >&2
	exit 1
fi
echo "$okMsg results in $OUT_DIR"

#!/usr/bin/env bash

# ************************************
# tools/benchpair.sh: paired parent-vs-change benchmark runs
# ************************************
# The run every performance PR has done by hand: the benchmark built
# once from BASE and once from the working tree, the two run as
# alternating-order pairs (parent first in odd pairs, change first in
# even ones), every pair put through `bench -compare`, and each metric
# summarized over the pairs as median, quartiles and pair wins. Run it
# from the repository root, or through make:
#
#   make bench-pair BASE=HEAD~1 WORKLOADS="simulate_cold" PAIRS=10 SEED=7
#
# Allocation metrics are the gate — they repeat to a fraction of a
# percent on any box — and the script exits non-zero when the change's
# median is worse than the parent's by more than the metric's bound in
# BENCHMARK.json, or when a run failed its own checks. Time metrics are
# printed the same way but are advisory: on a shared 2-vCPU box their
# spread is wider than most changes. A time metric whose parent runs
# spread wider than its bound (interquartile range > bound x median)
# cannot show a regression of that size either way, so it is marked
# "unresolved" rather than read as unchanged — unless every change run
# reads better than every parent run.
#
# Each run leaves $OUT/pair-N/{parent,change}/<workload>.json and .log,
# each pair $OUT/pair-N/compare.txt. Nothing under bench/ is touched;
# BASE is unpacked with `git archive` under a temporary directory that
# is removed on exit.
# ************************************

# variables you might change often

BASE="${BASE:-HEAD}"                       # the parent: any revision; the change is the working tree
WORKLOADS="${WORKLOADS:-figure_cells simulate_cold simulate_warm jobs_small advisor_cycle restart_recovery}"
PAIRS="${PAIRS:-10}"
SEED="${SEED:-1}"                          # workload seed; re-run a claim on one not used while writing the change
OUT="${OUT:-out}"                          # fixed output location
TICK_TIMEOUT="${TICK_TIMEOUT:-240}"        # seconds; the limit of one run of one workload

# unimportant variables (but do not change, ofc)

GATED="alloc_kib_per_op allocs_per_op"
okMsg="[ok]"
errorMsg="[error]"

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
	echo "$errorMsg run tools/benchpair.sh from the repository root" >&2
	exit 2
fi
root="$PWD"
case "$OUT" in /*) ;; *) OUT="$root/$OUT" ;; esac
tmp="$(mktemp -d)" || exit 1
trap 'rm -rf "$tmp"' EXIT

base_commit="$(git rev-parse --verify "$BASE^{commit}")" || exit 2
mkdir -p "$tmp/base" && git archive "$base_commit" | tar -x -C "$tmp/base" || exit 1
echo "[build] parent $base_commit, change: the working tree at $(git rev-parse HEAD)"
(cd "$tmp/base" && go build -o "$tmp/parent.bin" ./bench) || exit 1
go build -o "$tmp/change.bin" ./bench || exit 1

# run_side SIDE DIR COMMIT: every workload once, from the side's own tree.
run_side() {
	local side="$1" dir="$2" w
	mkdir -p "$pair/$side"
	for w in $WORKLOADS; do
		if ! (cd "$dir" && BENCH_COMMIT="$3" timeout "$TICK_TIMEOUT" "$tmp/$side.bin" -workload "$w" \
			-seed "$SEED" -timeout "${TICK_TIMEOUT}s" -out "$pair/$side") >"$pair/$side/$w.log" 2>&1; then
			echo "$errorMsg pair $i: $side $w failed or exceeded ${TICK_TIMEOUT}s, see $pair/$side/$w.log" >&2
			failed="$failed $side/$w"
		fi
	done
}

failed=""
for i in $(seq 1 "$PAIRS"); do
	pair="$OUT/pair-$i"
	rm -rf "$pair"
	if [ $((i % 2)) -eq 1 ]; then
		echo "[pair $i/$PAIRS] parent, change"
		run_side parent "$tmp/base" "$base_commit"
		run_side change "$root" "worktree"
	else
		echo "[pair $i/$PAIRS] change, parent"
		run_side change "$root" "worktree"
		run_side parent "$tmp/base" "$base_commit"
	fi
	# The pair's own verdict, time metrics included, kept beside it.
	"$tmp/change.bin" -compare "$pair/parent" "$pair/change" >"$pair/compare.txt" 2>&1
done
if [ -n "$failed" ]; then
	echo "$errorMsg failed runs:$failed" >&2
	exit 1
fi

# One line per (workload, metric, side, pair): the driver's result
# object is the last line a run prints.
for i in $(seq 1 "$PAIRS"); do
	for side in parent change; do
		for w in $WORKLOADS; do
			tail -n 1 "$OUT/pair-$i/$side/$w.log" | grep -o '"[a-z0-9_]*":{"value":[-+.eE0-9]*' |
				sed -e 's/^"//' -e 's/":{"value":/ /' -e "s|^|$w $side $i |"
		done
	done
done >"$tmp/values.txt"

awk -v gated="$GATED" -v pairs="$PAIRS" -v seed="$SEED" -v workloads="$WORKLOADS" '
function quantile(a, n, p,    pos, lo) {
	pos = (n - 1) * p; lo = int(pos)
	if (lo + 1 >= n) return a[n - 1]
	return a[lo] + (a[lo + 1] - a[lo]) * (pos - lo)
}
function summarize(w, m, side, out,    n, i, j, t, a) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((w, m, side, i) in v) a[n++] = v[w, m, side, i]
	for (i = 1; i < n; i++) { t = a[i]; for (j = i - 1; j >= 0 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	out["med"] = quantile(a, n, 0.5); out["q1"] = quantile(a, n, 0.25); out["q3"] = quantile(a, n, 0.75)
	out["min"] = a[0]; out["max"] = a[n - 1]
}
# BENCHMARK.json, end_to_end block: name, better and bound of each metric.
FILENAME == "BENCHMARK.json" {
	if ($0 ~ /"end_to_end"/) e2e = 1
	else if ($0 ~ /"per_layer"/) e2e = 0
	if (!e2e) next
	if ($0 ~ /"name": *"[a-z0-9_]*"/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); order[nm++] = name }
	if ($0 ~ /"better": *"higher"/) higher[name] = 1
	if ($0 ~ /"bound": *[0-9.]/) { b = $0; sub(/.*"bound": */, "", b); sub(/[^0-9.].*/, "", b); bound[name] = b + 0 }
	next
}
{ v[$1, $4, $2, $3] = $5 }
END {
	ng = split(gated, g, " "); for (i = 1; i <= ng; i++) gate[g[i]] = 1
	nw = split(workloads, ws, " ")
	bad = 0
	for (k = 1; k <= nw; k++) {
		w = ws[k]
		printf "\n%s — %d pairs, seed %s: median [quartiles] parent -> change, change vs parent, pair wins\n", w, pairs, seed
		for (x = 0; x < nm; x++) {
			m = order[x]
			summarize(w, m, "parent", p); summarize(w, m, "change", c)
			wins = 0
			for (i = 1; i <= pairs; i++) {
				d = v[w, m, "change", i] - v[w, m, "parent", i]
				if ((m in higher) ? d > 0 : d < 0) wins++
			}
			diff = p["med"] != 0 ? (c["med"] - p["med"]) / p["med"] : 0
			worse = (m in higher) ? -diff : diff
			note = (m in gate) ? "gate ok" : "advisory"
			if ((m in gate) && worse > bound[m]) { note = "GATE FAILED (bound " bound[m] * 100 " %)"; bad = 1 }
			beats = (m in higher) ? c["min"] > p["max"] : c["max"] < p["min"]
			if (!(m in gate) && p["q3"] - p["q1"] > bound[m] * p["med"] && !beats) note = "unresolved (parent spread > bound " bound[m] * 100 " %)"
			printf "  %-17s %10.5g [%.5g–%.5g] -> %10.5g [%.5g–%.5g]  %+7.1f %%  %2d/%d  %s\n", m, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"], diff * 100, wins, pairs, note
		}
	}
	exit bad
}' BENCHMARK.json "$tmp/values.txt"
status=$?
if [ $status -ne 0 ]; then
	echo "$errorMsg an allocation metric is worse than the parent beyond its bound; per-pair verdicts in $OUT/pair-*/compare.txt" >&2
	exit 1
fi
echo "$okMsg results in $OUT"

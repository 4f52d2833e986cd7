#!/usr/bin/env bash
# Drift check by paired runs. Builds the benchmark harness (and with it the
# program) at HEAD and at the newest commit that changed a committed
# baseline (docs/results/BENCH_*.json), side by side, runs alternated pairs
# of each workload on both with --seed 1 --trace 0, and compares the two
# sets with the harness's --compare table. Exits non-zero when any row of a
# table reads `worse`.
#
#   scripts/bench-pairs.sh                          # all workloads, 10 pairs of 15 s runs
#   scripts/bench-pairs.sh -w served_mix -n 10 -s 5 # one workload, shorter runs
#
# Options: -w workload (repeatable; default all four), -n pairs (default
# 10), -s seconds per run (default 15), -b base commit (default: the newest
# commit touching a baseline file), -o directory for the checkouts, runs and
# tables (default: a temporary directory).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10
seconds=15
base=""
out=""
workloads=()
while getopts "w:n:s:b:o:" opt; do
	case "$opt" in
	w) workloads+=("$OPTARG") ;;
	n) pairs="$OPTARG" ;;
	s) seconds="$OPTARG" ;;
	b) base="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) sed -n '2,15p' "$0" >&2; exit 2 ;;
	esac
done

if [ -z "$base" ]; then
	base="$(git -C "$root" log -1 --format=%H -- 'docs/results/BENCH_*.json')"
	[ -n "$base" ] || { echo "bench-pairs: no commit touches docs/results/BENCH_*.json" >&2; exit 2; }
fi
head="$(git -C "$root" rev-parse HEAD)"
[ ${#workloads[@]} -gt 0 ] || workloads=(si_workflow mi_fleet traj_analytics served_mix)
out="${out:-$(mktemp -d)}"
mkdir -p "$out"
echo "bench-pairs: base $base, head $head, $pairs pairs of ${seconds}s per workload, in $out" >&2

# Each side is a clean export of its commit with the harness built inside it,
# the way bench/run.sh builds it.
export GOTOOLCHAIN=local
for side in base head; do
	rev="$base"
	[ "$side" = head ] && rev="$head"
	dir="$out/$side"
	rm -rf "$dir"
	mkdir -p "$dir"
	git -C "$root" archive "$rev" | tar -x -C "$dir"
	(cd "$dir/bench" && go build -o "$dir/.bench_build/pgfmu-bench" .)
done

run() { # side workload pair
	(cd "$out/$1" && .bench_build/pgfmu-bench --workload "$2" --seed 1 --seconds "$seconds" \
		--trace 0 --record "$out/runs/$1-$2-$3.json" >/dev/null 2>"$out/runs/$1-$2-$3.log")
}

# set side workload: wraps one side's runs as {"runs": [...]} in pair order.
set_of() {
	local sep=""
	printf '{"runs": ['
	for i in $(seq 1 "$pairs"); do
		printf '%s' "$sep"
		cat "$out/runs/$1-$2-$i.json"
		sep=","
	done
	printf ']}\n'
}

mkdir -p "$out/runs"
status=0
for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" "$i" && run head "$w" "$i"
		else
			run head "$w" "$i" && run base "$w" "$i"
		fi
		echo "bench-pairs: $w pair $i/$pairs done" >&2
	done
	set_of base "$w" >"$out/base-$w.json"
	set_of head "$w" >"$out/head-$w.json"
	(cd "$out/head" && .bench_build/pgfmu-bench --compare "$out/base-$w.json" "$out/head-$w.json") |
		tee "$out/compare-$w.txt" || status=1
done
exit "$status"

#!/usr/bin/env bash
# A/B run of the working tree against a revision, on this machine:
#
#   bench/ab.sh REV [PAIRS [harness flags...]]
#
# Builds REV's interopd from `git archive REV` and the working tree's
# interopd, then runs PAIRS (default 10) pairs of this tree's harness,
# one seed per pair, each side driving its own daemon through -daemon.
# Odd pairs run REV first, even pairs the working tree first. A run that
# exits non-zero is reported and the pairs go on; -compare counts its
# failed requests. Finally -compare prints each (workload, metric)
# verdict against BENCHMARK.json over the pairs where both sides wrote
# results. Everything lands in bench/out/ab/.
set -euo pipefail
rev=${1:?usage: bench/ab.sh REV [PAIRS [harness flags...]]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/bench/out/ab"
rm -rf "$out"
mkdir -p "$out/base-src"
git archive "$rev" | tar -x -C "$out/base-src"
(cd "$out/base-src" && go build -o "$out/interopd-base" ./cmd/interopd)
go build -o "$out/interopd-head" ./cmd/interopd
go -C bench build -o "$out/interopbench" ./interopbench
base=() head=()
for i in $(seq -w 1 "$pairs"); do
	if ((10#$i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		echo "pair $i: $side" >&2
		"$out/interopbench" -daemon "$out/interopd-$side" -seed "$((10#$i))" \
			-json "$out/$side-$i.json" "$@" >"$out/$side-$i.txt" ||
			echo "pair $i: $side exited $?" >&2
	done
	if [[ -f $out/base-$i.json && -f $out/head-$i.json ]]; then
		base+=("$out/base-$i.json") head+=("$out/head-$i.json")
	fi
done
"$out/interopbench" -compare "${base[@]}" -- "${head[@]}"

#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload, the form every
# performance claim in this repository is judged in:
#
#   scripts/pairs.sh PARENT_DIR WORKLOAD [N=10]
#
# For seeds 1..N it runs `go run ./bench --workload W --seed i --seconds 9
# --trace 0` in PARENT_DIR (a checkout of the parent commit) and in this
# checkout, alternating which side goes first, and prints every run, then per
# end-to-end metric each side's median and quartiles, the change of the
# median, and wins / ties over the pairs. Nothing is averaged away and no run
# is dropped; a run that fails or reports correct=false is shown as such.
set -euo pipefail

parent=${1:?usage: scripts/pairs.sh PARENT_DIR WORKLOAD [N=10]}
workload=${2:?usage: scripts/pairs.sh PARENT_DIR WORKLOAD [N=10]}
n=${3:-10}
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$parent" && pwd)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# one SIDE DIR SEED: run the workload, print the run, record its metrics.
one() {
	local line
	line=$(cd "$2" && go run ./bench --workload "$workload" --seed "$3" --seconds 9 --trace 0 2>/dev/null | tail -n 1) || true
	case $line in
	'{"correct":'*) ;;
	*) line='{"correct":false,"failed":-1,"metrics":{}}' ;;
	esac
	printf 'seed %-2s %-6s correct=%s failed=%s' "$3" "$1" \
		"$(sed -E 's/.*"correct":([a-z]+).*/\1/' <<<"$line")" \
		"$(sed -E 's/.*"failed":(-?[0-9]+).*/\1/' <<<"$line")"
	grep -oE '"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+' <<<"$line" |
		sed -E 's/"([^"]+)":\{"value":(.*)/\1 \2/' |
		while read -r metric value; do
			printf '  %s=%s' "$metric" "$value"
			echo "$1 $3 $metric $value" >>"$runs"
		done
	echo
}

for seed in $(seq 1 "$n"); do
	if ((seed % 2)); then
		one parent "$parent" "$seed"
		one change "$change" "$seed"
	else
		one change "$change" "$seed"
		one parent "$parent" "$seed"
	fi
done

# Which direction is better comes from BENCHMARK.json's end_to_end list.
awk -v workload="$workload" '
FNR == NR {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^  \]/) inside = 0
	if (inside && match($0, /"name": *"[^"]+"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
	if (inside && match($0, /"better": *"[^"]+"/)) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b; order[++metrics] = name }
	next
}
{ v[$1, $3, $2] = $4; seen[$1, $3, ++cnt[$1, $3]] = $4; if ($2 > seeds) seeds = $2 }
# quantile k of 4 of side/metric, the rule of Python statistics.quantiles(n=4).
function quart(side, m, k,    i, j, t, a, c, pos, lo, frac) {
	c = cnt[side, m]
	if (c == 0) return "nan"
	for (i = 1; i <= c; i++) a[i] = seen[side, m, i]
	for (i = 2; i <= c; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	if (c == 1) return a[1]
	pos = k * (c + 1) / 4; lo = int(pos); frac = pos - lo
	if (lo < 1) return a[1]
	if (lo >= c) return a[c]
	return a[lo] + frac * (a[lo + 1] - a[lo])
}
END {
	printf "\n%s, %d pairs (median [q1, q3]; wins = pairs where the change is better):\n", workload, seeds
	for (i = 1; i <= metrics; i++) {
		m = order[i]; wins = ties = pairs = 0
		for (s = 1; s <= seeds; s++) {
			if (!(("parent", m, s) in v) || !(("change", m, s) in v)) continue
			pairs++
			d = v["change", m, s] - v["parent", m, s]
			if (better[m] == "lower") d = -d
			if (d > 0) wins++; else if (d == 0) ties++
		}
		pm = quart("parent", m, 2); cm = quart("change", m, 2)
		printf "  %-16s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  median %+.1f %%  wins %d / %d, ties %d  (%s is better)\n",
			m, pm, quart("parent", m, 1), quart("parent", m, 3), cm, quart("change", m, 1), quart("change", m, 3),
			(pm != 0 ? 100 * (cm - pm) / pm : 0), wins, pairs, ties, better[m]
	}
}' "$change/BENCHMARK.json" "$runs"

#!/bin/sh
# pairs.sh — the paired measurement protocol behind every speed claim
# in CHANGES.md: the parent commit and the working tree, built once
# each, run alternately (which side goes first alternates too) on one
# workload of the repo benchmark, untraced.
#
# Usage: pairs.sh <parent-ref> <workload> [seed] [pairs] [seconds]
#   parent-ref  commit to compare the working tree against
#   workload    scan_iso | agg_iso | corun_scan_agg | serve_mix
#   seed        workload seed (default 1)
#   pairs       parent/change pairs to run (default 10)
#   seconds     host seconds per run (default: the benchmark's own)
#
# Prints, per end-to-end metric, q1/median/q3 of either side and the
# pairs the change won (ties count for neither), and whether
# sim_throughput, sim_p99_cycles and sim_digest were equal in every
# run. A claim needs the change ahead in nine pairs of ten and medians
# further apart than the parent's q3-q1.
set -eu

if [ $# -lt 2 ]; then
	sed -n '2,18p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 seed=${3:-1} pairs=${4:-10} seconds=${5:-}

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git -C "$root" worktree add --detach "$tmp/parent" "$ref" >/dev/null
go build -C "$tmp/parent/bench" -o "$tmp/bench_parent" .
go build -C "$root/bench" -o "$tmp/bench_change" .

# run <side> <pair>: one untraced pass from the side's own bench/,
# reduced to "side pair metric value" rows.
run() {
	case $1 in
	parent) dir=$tmp/parent/bench ;;
	change) dir=$root/bench ;;
	esac
	(cd "$dir" && "$tmp/bench_$1" --workload "$workload" --seed "$seed" --trace 0 ${seconds:+--seconds "$seconds"}) |
		awk -v side="$1" -v pair="$2" '$1 ~ /^(host_s|sim_accesses_per_host_s|setup_s|host_heap_mib|sim_throughput|sim_p99_cycles|sim_digest|ops_failed)$/ { print side, pair, $1, $2 }' >>"$tmp/rows"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" && run change "$i"
	else
		run change "$i" && run parent "$i"
	fi
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "== $workload  seed $seed  $pairs pairs  parent $ref"
printf '%-26s %-38s %-38s %s\n' metric 'parent q1/median/q3' 'change q1/median/q3' 'change ahead'
for metric in host_s sim_accesses_per_host_s setup_s host_heap_mib; do
	awk -v m="$metric" '$3 == m { print $1, $2, $4 }' "$tmp/rows" | sort -k1,1 -k3,3g |
		awk -v m="$metric" -v higher="$([ "$metric" = sim_accesses_per_host_s ] && echo 1 || echo 0)" '
		{ n[$1]++; v[$1, n[$1]] = $3; at[$1, $2] = $3; if ($2 > pairs) pairs = $2 }
		# quantile of the sorted values of one side, linear interpolation
		function q(side, p,    h, lo) {
			h = (n[side] - 1) * p + 1; lo = int(h)
			if (lo >= n[side]) return v[side, n[side]]
			return v[side, lo] + (h - lo) * (v[side, lo + 1] - v[side, lo])
		}
		function three(side) { return sprintf("%.6g/%.6g/%.6g", q(side, .25), q(side, .5), q(side, .75)) }
		END {
			for (i = 1; i <= pairs; i++) {
				d = at["change", i] - at["parent", i]
				if (higher) d = -d
				if (d < 0) won++
			}
			printf "%-26s %-38s %-38s %d of %d  (medians x%.3f, apart %.4g, parent q3-q1 %.4g)\n", m, three("parent"), three("change"), won, pairs,
				q("change", .5) / q("parent", .5), q("change", .5) - q("parent", .5), q("parent", .75) - q("parent", .25)
		}'
done
for metric in sim_throughput sim_p99_cycles sim_digest ops_failed; do
	awk -v m="$metric" '$3 == m { seen[$4]++ } END { k = 0; for (x in seen) { k++; last = x }
		if (k == 1) printf "%-26s equal in every run (%s)\n", m, last
		else { printf "%-26s DIFFERS:", m; for (x in seen) printf " %s x%d", x, seen[x]; print "" } }' "$tmp/rows"
done

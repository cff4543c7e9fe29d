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
# pairs the change won (ties count for neither), then on a line of its
# own the q1/median/q3 of the per-pair ratio change / parent: each pair
# ran back to back, so the ratio cancels the drift between pairs that
# widens either side's spread. The ratios are informational; the bar
# below is judged on the two sides' quartiles. Last, whether
# sim_throughput, sim_p99_cycles and sim_digest were equal in every
# run. A claim needs the change ahead in nine pairs of ten and medians
# further apart than the parent's q3-q1, in the metric's better
# direction; the last four lines say whether host_s,
# sim_accesses_per_host_s, setup_s and host_heap_mib met that.
#
# How far to trust the session is printed with it: the host's core
# count, GOMAXPROCS and load average before and after (a gain that
# comes from a second core needs one that is idle), and setup_s as a
# noise control. Data generation is the same code on both sides unless
# the change touched it, so setup_s medians further apart than the
# parent's q3-q1 mean the host drifted between the two sides by more
# than its own spread, unless the change is to data generation. Either
# way the script then withholds the two host-time verdicts, host_s and
# sim_accesses_per_host_s, and still gives the setup_s and
# host_heap_mib ones.
set -eu

if [ $# -lt 2 ]; then
	sed -n '2,35p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 seed=${3:-1} pairs=${4:-10} seconds=${5:-}

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

host() {
	echo "host $1: nproc $(nproc)  GOMAXPROCS ${GOMAXPROCS:-unset (the runtime takes nproc)}  loadavg $(cat /proc/loadavg 2>/dev/null || echo unavailable)"
}
host 'at start'

mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
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
		awk -v m="$metric" -v stats="$tmp/stats.$metric" -v higher="$([ "$metric" = sim_accesses_per_host_s ] && echo 1 || echo 0)" '
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
				# the per-pair ratios, insertion-sorted as a third side
				x = at["parent", i] ? at["change", i] / at["parent", i] : 1
				for (j = n["ratio"]++; j >= 1 && v["ratio", j] > x; j--) v["ratio", j + 1] = v["ratio", j]
				v["ratio", j + 1] = x
			}
			apart = q("change", .5) - q("parent", .5); iqr = q("parent", .75) - q("parent", .25)
			printf "%-26s %-38s %-38s %d of %d  (medians x%.3f, apart %.4g, parent q3-q1 %.4g)\n", m, three("parent"), three("change"), won, pairs,
				q("change", .5) / q("parent", .5), apart, iqr
			printf "%-26s per-pair change/parent q1/median/q3 x%.3f/x%.3f/x%.3f\n", "", q("ratio", .25), q("ratio", .5), q("ratio", .75)
			print m, won + 0, pairs, higher ? apart : -apart, iqr >stats
		}'
done
for metric in sim_throughput sim_p99_cycles sim_digest ops_failed; do
	awk -v m="$metric" '$3 == m { seen[$4]++ } END { k = 0; for (x in seen) { k++; last = x }
		if (k == 1) printf "%-26s equal in every run (%s)\n", m, last
		else { printf "%-26s DIFFERS:", m; for (x in seen) printf " %s x%d", x, seen[x]; print "" } }' "$tmp/rows"
done
host 'at end  '
awk '
	function abs(x) { return x < 0 ? -x : x }
	{ m[NR] = $1; won[NR] = $2; pairs[NR] = $3; gain[NR] = $4; iqr[NR] = $5 }
	$1 == "setup_s" { noisy = abs($4) > $5; apart = abs($4); spread = $5 }
	END {
		if (noisy)
			printf "noise control: setup_s medians are %.4g apart, more than the parent q3-q1 of %.4g: the change is to data generation or the host drifted between the two sides, so neither host-time metric gets a verdict. If the change did not touch data generation, run it again.\n", apart, spread
		else
			printf "noise control: setup_s medians are %.4g apart, inside the parent q3-q1 of %.4g\n", apart, spread
		for (i = 1; i <= NR; i++) {
			if (noisy && (m[i] == "host_s" || m[i] == "sim_accesses_per_host_s")) {
				printf "%s: no verdict, setup_s moved (see the noise control)\n", m[i]
				continue
			}
			ok = won[i] * 10 >= pairs[i] * 9 && gain[i] > iqr[i]
			printf "%s: change ahead in %d of %d pairs, its median %.4g better than the parent'"'"'s against a parent q3-q1 of %.4g: %s\n", m[i], won[i], pairs[i], gain[i], iqr[i], ok ? "meets the bar for a claim" : "does not meet the bar for a claim"
		}
	}' "$tmp/stats.host_s" "$tmp/stats.sim_accesses_per_host_s" "$tmp/stats.setup_s" "$tmp/stats.host_heap_mib"

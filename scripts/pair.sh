#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree.
#
#   scripts/pair.sh <parent-rev> <workload> <seed> <pairs>
#
# The parent is extracted with `git archive` into a mktemp -d directory and
# both sides run through their own, unchanged bench/run.sh (which builds the
# benchmark from that side's source), untraced, for BENCHMARK.json's
# run_seconds. Each pair runs both sides back to back, and which side goes
# first alternates from pair to pair, so a drift of the host's load does not
# fall on one side only. For every run it prints the correctness line; for
# every end-to-end metric of BENCHMARK.json, the per-pair values, the two
# medians, the parent's interquartile range, in how many pairs the working
# tree was better, and the metric's bound. Run from anywhere inside the
# repository; writes only under the mktemp -d (removed on exit) and the
# checkouts' own .bench_build/.
set -euo pipefail
if [ $# -ne 4 ]; then
  echo "usage: scripts/pair.sh <parent-rev> <workload> <seed> <pairs>" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
cd "$(dirname "$0")/.."
root=$(pwd)
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

# run <side> <dir>: one untraced run from <dir>; its last stdout line (the
# result JSON) is appended to $tmp/<side>.jsonl.
run() {
  local side=$1 dir=$2 out
  out=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
  printf '%s\n' "$out" | tail -n 1 >>"$tmp/$side.jsonl"
  printf '  %-6s %s\n' "$side" "$(tail -n 1 "$tmp/$side.jsonl" | grep -o '"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*')"
}

echo "pair.sh: $rev (parent) vs the working tree, $workload, seed $seed, $pairs pairs of ${seconds}s runs"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    echo "pair $i: parent first"
    run parent "$tmp/parent"
    run change "$root"
  else
    echo "pair $i: change first"
    run change "$root"
    run parent "$tmp/parent"
  fi
done

# The end-to-end metrics with their direction and bound, one per line:
# "name better bound".
metrics=$(awk '
  /"end_to_end"/ { on = 1; next }
  on && /^  \]/ { exit }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' BENCHMARK.json)

# values <side> <metric>: the metric's value in each run of the side, in
# pair order, one line.
values() {
  sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$tmp/$1.jsonl" | paste -sd' ' -
}

# fmt: a line of values to four significant digits.
fmt() { awk '{ for (i = 1; i <= NF; i++) printf "%s%.4g", (i > 1 ? " " : ""), $i; print "" }' <<<"$1"; }

echo
while read -r name better bound; do
  p=$(values parent "$name")
  c=$(values change "$name")
  [ -n "$p" ] || continue
  echo "$name ($better is better, bound $bound)"
  printf '  parent: %s\n  change: %s\n' "$(fmt "$p")" "$(fmt "$c")"
  awk -v p="$p" -v c="$c" -v better="$better" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    }
    # q: the q-quantile of the sorted a[1..n], linearly interpolated.
    function q(a, n, f,   h, lo) {
      h = (n - 1) * f + 1; lo = int(h)
      return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
    }
    BEGIN {
      n = split(p, ps, " "); split(c, cs, " ")
      wins = 0
      for (i = 1; i <= n; i++) {
        if (better == "lower" ? cs[i] < ps[i] : cs[i] > ps[i]) wins++
        sp[i] = ps[i]; sc[i] = cs[i]
      }
      sort(sp, n); sort(sc, n)
      mp = q(sp, n, 0.5); mc = q(sc, n, 0.5)
      rel = mp != 0 ? 100 * (mc - mp) / mp : 0
      printf "  median parent %g [IQR %g], change %g (%+.1f%%); change better in %d/%d pairs\n",
        mp, q(sp, n, 0.75) - q(sp, n, 0.25), mc, rel, wins, n
    }'
done <<<"$metrics"

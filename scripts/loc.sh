#!/usr/bin/env bash
# Code-line count behind ROADMAP's "net lines removed" metric: Go lines that
# are not in a _test.go file, not blank and not comment-only, per package
# under internal/ and cmd/, plus the total.
#
#   scripts/loc.sh            count the working tree (tracked and untracked files)
#   scripts/loc.sh <git-ref>  the same, next to the count at <git-ref>, with the difference
#
# The last line ("loc: ...") is the one-line summary scripts/check.sh prints.
set -euo pipefail
cd "$(dirname "$0")/.."

# count_dir <root>: prints "<package> <lines>" for every package below
# <root>/internal and <root>/cmd. Block comments are tracked across lines;
# a line that carries code before or after a comment counts as code.
count_dir() {
  (cd "$1" && find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 2>/dev/null |
    xargs -0 -r awk '
      FNR == 1 { inblock = 0; pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
      {
        line = $0
        code = 0
        while (length(line) > 0) {
          if (inblock) {
            i = index(line, "*/")
            if (i == 0) { line = ""; break }
            line = substr(line, i + 2); inblock = 0
            continue
          }
          sub(/^[ \t]+/, "", line)
          if (line == "" || substr(line, 1, 2) == "//") break
          if (substr(line, 1, 2) == "/*") { inblock = 1; line = substr(line, 3); continue }
          code = 1
          # Skip to a block comment that opens later on this line, if any
          # (string literals holding "/*" are rare enough to ignore here).
          i = index(line, "/*")
          if (i == 0) break
          line = substr(line, i)
        }
        if (code) n[pkg]++
      }
      END { for (p in n) print p, n[p] }' | sort)
}

sum() { awk '{ s += $2 } END { print s + 0 }'; }

now=$(count_dir .)
if [ $# -eq 0 ]; then
  echo "$now" | awk '{ printf "%-28s %6d\n", $1, $2 }'
  echo "loc: $(echo "$now" | sum) non-test Go code lines under internal/ and cmd/"
  exit 0
fi

ref=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$ref" internal cmd | tar -x -C "$tmp"
then=$(count_dir "$tmp")

join -a1 -a2 -e0 -o 0,1.2,2.2 <(echo "$then") <(echo "$now") |
  awk '{ d = $3 - $2; if (d != 0) printf "%-28s %6d -> %6d  %+d\n", $1, $2, $3, d }'
for top in internal cmd; do
  a=$(echo "$then" | grep "^$top/" | sum)
  b=$(echo "$now" | grep "^$top/" | sum)
  printf '%-28s %6d -> %6d  %+d\n' "$top/ total" "$a" "$b" "$((b - a))"
done
a=$(echo "$then" | sum)
b=$(echo "$now" | sum)
printf 'loc: %d non-test Go code lines under internal/ and cmd/ (%+d vs %s)\n' "$b" "$((b - a))" "$ref"

#!/usr/bin/env bash
# Reachability audit: every non-test function under internal/ and cmd/ is
# reached by a declared workload, or carries a line in scripts/deadcode.keep,
# or fails this script. See docs/STATIC_ANALYSIS.md ("Reachability audit").
#
# The traffic, all from cover-instrumented builds of things that are not unit
# tests: the four bench/ workloads (traced and untraced), the TPC-H parity
# suites of internal/tpch, the four examples/, hrdbms-bench -exp all,
# hrdbms-lint over the repository as check.sh runs it and over two of its
# fixtures, one scripted hrdbms-server session over the commands
# docs/SERVING.md documents and the SQL the README does, and one hrdbms-cli
# session. A second measurement, of the unit tests, only checks that a kept
# function still has a test.
#
# Takes no arguments, downloads nothing, and writes only under a mktemp -d
# it removes on exit, except for the listing, which goes to stdout. The last
# line is the summary scripts/check.sh prints.
set -euo pipefail
cd "$(dirname "$0")/.."
keep=scripts/deadcode.keep

tmp=$(mktemp -d)
server_pid=
cleanup() {
  if [ -n "$server_pid" ]; then kill "$server_pid" 2>/dev/null || true; fi
  rm -rf "$tmp"
}
trap cleanup EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/run" "$tmp/tmp"
export TMPDIR="$tmp/tmp" # the data directories the binaries make for themselves

say() { echo "deadcode: $*" >&2; }

# -coverpkg must name the main package too: on go1.24 a build whose main is
# not instrumented writes no counter files at all. The lines outside
# internal/ and cmd/ are dropped when the profiles are merged.
say "building instrumented binaries"
go build -cover -coverpkg=./... -o "$tmp/bin/" \
  ./cmd/hrdbms-bench ./cmd/hrdbms-server ./cmd/hrdbms-cli ./cmd/hrdbms-lint ./examples/...
(cd bench && go build -cover -coverpkg=repro/...,repro/bench/... -o "$tmp/bin/bench" .)

# run <name> <binary> [args...]: one instrumented process, its counters in
# their own directory, its working directory under $tmp, its output kept for
# the failure message only.
run() {
  local name=$1 bin=$2
  shift 2
  mkdir -p "$tmp/cov/$name"
  if ! (cd "$tmp/run" && GOCOVERDIR="$tmp/cov/$name" "$tmp/bin/$bin" "$@") >"$tmp/run/$name.log" 2>&1; then
    say "$name failed:"
    tail -n 20 "$tmp/run/$name.log" >&2
    exit 1
  fi
}

for w in scan_agg join_shuffle serve_short refresh_mix; do
  for t in 0 1; do
    say "bench $w --trace $t"
    run "bench-$w-$t" bench --workload "$w" --seed 42 --seconds 2 --trace "$t"
  done
done

for ex in analytics external_csv quickstart transactions; do
  say "examples/$ex"
  run "example-$ex" "$ex"
done

say "hrdbms-bench -exp all"
run bench-all hrdbms-bench -exp all

# The linter loads the packages of the working directory, so it runs from the
# repository root: over the repository as check.sh runs it (no findings), and
# over two of its fixtures, whose findings it must print and exit 1 on.
say "hrdbms-lint -json ./..."
mkdir -p "$tmp/cov/lint" "$tmp/cov/lint-fixtures"
GOCOVERDIR="$tmp/cov/lint" "$tmp/bin/hrdbms-lint" -json ./... >"$tmp/run/lint.log" 2>&1 ||
  { say "hrdbms-lint failed:"; tail -n 20 "$tmp/run/lint.log" >&2; exit 1; }
say "hrdbms-lint over the pinpair and lockorder fixtures"
status=0
GOCOVERDIR="$tmp/cov/lint-fixtures" "$tmp/bin/hrdbms-lint" ./cmd/hrdbms-lint/testdata/pinpair \
  ./cmd/hrdbms-lint/testdata/lockorder >"$tmp/run/lint-fixtures.log" 2>&1 || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'lockorder: ' "$tmp/run/lint-fixtures.log"; then
  say "hrdbms-lint did not report its fixtures' findings (exit $status):"
  tail -n 20 "$tmp/run/lint-fixtures.log" >&2
  exit 1
fi

# One server, three connections: the documented wire commands and SQL
# statements on the first (among them what no benchmark query drives through
# a join's typed probe: a semi join, an anti join and an expression-key join
# with the columnar orders on the probe side; and an aggregate whose
# magic-set key source is a join, which opt copies whole), a heavy self-join on the
# second, and its KILL from the third. SIGTERM drains the server, which is what flushes its counters.
say "hrdbms-server scripted session"
mkdir -p "$tmp/cov/server" "$tmp/run/server-data"
(cd "$tmp/run" && GOCOVERDIR="$tmp/cov/server" exec "$tmp/bin/hrdbms-server" \
  -listen 127.0.0.1:0 -http 127.0.0.1:0 -trace -tpch 0.001 \
  -dir "$tmp/run/server-data") >"$tmp/run/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 100); do
  grep -q "listening on" "$tmp/run/server.log" 2>/dev/null && break
  kill -0 "$server_pid" 2>/dev/null || { say "server died:"; cat "$tmp/run/server.log" >&2; exit 1; }
  sleep 0.2
done
# The server chose both ports; its log says which.
port=$(sed -n 's/^hrdbms-server listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$tmp/run/server.log")
http_port=$(sed -n 's|^observability on http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$tmp/run/server.log")

# ask <fd> <line>: send one statement, print the reply up to its OK/ERR line.
ask() {
  local fd=$1 reply
  printf '%s\n' "$2" >&"$fd"
  while IFS= read -r -t 30 -u "$fd" reply; do
    printf '%s\n' "$reply"
    case $reply in OK*|ERR*) return 0 ;; esac
  done
  say "no reply to: $2"
  exit 1
}
# expect <prefix> <fd> <line>: ask, and fail unless the last line starts with prefix.
expect() {
  local want=$1 last
  last=$(ask "$2" "$3" | tail -n 1)
  case $last in "$want"*) ;; *) say "expected $want for '$3', got: $last"; exit 1 ;; esac
}

exec 3<>"/dev/tcp/127.0.0.1/$port"
while IFS='|' read -r want stmt; do
  expect "$want" 3 "$stmt"
done <<'SESSION'
OK|SELECT count(*) FROM lineitem
OK|PREPARE q AS SELECT n_name FROM nation WHERE n_regionkey = 1
OK|EXECUTE q
OK|SET batchrows 64
OK|SET parallel 2
OK|EXECUTE q
OK|SHOW SESSIONS
OK|SHOW QUERIES
ERR|EXECUTE missing
ERR|KILL 999999
ERR|SET nothing 1
ERR|SELEC nope
ERR|SELECT nothing FROM nowhere
OK|CREATE TABLE audit_t (k INT, v VARCHAR, f FLOAT, d DATE) PARTITION BY HASH(k)
OK|CREATE INDEX audit_idx ON audit_t(k) USING BTREE
OK|INSERT INTO audit_t VALUES (1, 'a', 1.5, DATE '2026-01-01'), (2, 'b', 0.0, DATE '2026-02-01'), (3, NULL, 3.5, NULL), (4, 'd', 4.5, NULL), (5, NULL, 5.5, DATE '2026-05-01'), (6, 'f', 6.5, NULL), (7, NULL, 7.5, DATE '2026-07-01'), (8, 'h', 8.5, NULL)
ERR|INSERT INTO audit_t VALUES (9, 'kept out by the next row', 9.5, NULL), (10, 'arity')
ERR|INSERT INTO audit_t VALUES ('x', 'a string in the INT column', 2.5, NULL)
ERR|UPDATE audit_t SET k = 'y' WHERE k = 1
ERR|UPDATE audit_t SET f = 1 / f WHERE k > 0
ERR|DELETE FROM audit_t WHERE 1 / f > 0
ERR|UPDATE audit_t SET k = (SELECT max(k) FROM audit_t)
ERR|DELETE FROM audit_t WHERE k IN (SELECT k FROM audit_t)
ERR|DELETE FROM audit_t WHERE EXISTS (SELECT k FROM audit_t)
ERR|SELECT k FROM audit_t WHERE k = 2 OR EXISTS (SELECT * FROM audit_t b WHERE b.k = audit_t.k)
ERR|SELECT k FROM audit_t WHERE k = 2 OR k IN (SELECT k FROM audit_t)
ERR|SELECT INTERVAL '1' DAY FROM audit_t
OK|SELECT k, v, d FROM audit_t ORDER BY 2, 1
OK|UPDATE audit_t SET v = 'z' WHERE k = 2
OK|UPDATE audit_t SET k = k + 10 WHERE k = 3
OK|DELETE FROM audit_t WHERE k = 13
OK|ANALYZE audit_t
OK|SELECT v FROM audit_t WHERE k = 2
OK|SELECT -f, NOT (k > 1), v IS NULL, d + INTERVAL '1' DAY FROM audit_t WHERE NOT (k = 2) AND v IS NOT NULL ORDER BY k
OK|EXPLAIN SELECT DISTINCT x.v FROM (SELECT v FROM audit_t WHERE NOT (k > 1)) x WHERE EXISTS (SELECT * FROM audit_t b WHERE b.k = 1) AND x.v IN (SELECT v FROM audit_t) AND x.v IS NOT NULL AND -1 < 0
OK|EXPLAIN ANALYZE SELECT count(*) FROM lineitem WHERE l_quantity < 10
OK|REORGANIZE audit_t
OK|CREATE TABLE audit_c (k INT, v VARCHAR, f FLOAT, d DATE, b BOOLEAN) PARTITION BY HASH(k) COLUMNAR
OK|INSERT INTO audit_c VALUES (1, 'a', 1.5, DATE '2026-01-01', TRUE), (2, NULL, NULL, NULL, FALSE), (3, 'c', 3.5, NULL, NULL), (4, 'a', NULL, DATE '2026-04-01', TRUE)
OK|SELECT k, v, f, d FROM audit_c WHERE f > 1 OR v IS NULL ORDER BY k
OK|SELECT k FROM audit_c WHERE (b OR NOT (k > 3)) AND v < 'b' AND v <= v ORDER BY k
OK|SELECT v, count(*), sum(f), min(d), max(CASE WHEN k > 2 THEN k ELSE f END) FROM audit_c WHERE k < 4 GROUP BY v ORDER BY v
OK|SELECT l_orderkey, l_comment FROM lineitem WHERE l_comment LIKE '%furious%' ORDER BY l_orderkey, l_comment
OK|SELECT count(*) FROM orders WHERE EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 49)
OK|SELECT count(*) FROM orders WHERE NOT EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 49)
OK|SELECT count(*) FROM orders, nation WHERE o_custkey + 1 = n_nationkey + 1
OK|SELECT count(*) FROM partsupp, part, (SELECT l_suppkey AS sk, sum(l_quantity) AS q FROM lineitem GROUP BY l_suppkey) AS t WHERE ps_partkey = p_partkey AND p_size = 15 AND p_type LIKE '%BRASS' AND ps_suppkey = sk
OK|SELECT l_linenumber, l_comment FROM lineitem WHERE l_orderkey = 1 ORDER BY l_linenumber
OK|DROP TABLE audit_t
OK|DROP TABLE audit_c
SESSION

# A value no page can hold (the server's pages are 32 KiB) is refused by name.
big=$(head -c 40000 /dev/zero | tr '\0' x)
expect OK 3 "CREATE TABLE audit_big (k INT, v VARCHAR) PARTITION BY HASH(k) COLUMNAR"
expect ERR 3 "INSERT INTO audit_big VALUES (1, '$big')"
expect OK 3 "DROP TABLE audit_big"

exec 4<>"/dev/tcp/127.0.0.1/$port"
exec 5<>"/dev/tcp/127.0.0.1/$port"
printf '%s\n' "SELECT count(*) FROM lineitem a, lineitem b WHERE a.l_quantity < b.l_quantity" >&4
qid=
for _ in $(seq 100); do
  qid=$(ask 5 "SHOW QUERIES" | awk '$1 ~ /^[0-9]+$/ { print $1; exit }')
  [ -n "$qid" ] && break
  sleep 0.05
done
if [ -n "$qid" ]; then
  expect OK 5 "KILL $qid"
  IFS= read -r -t 30 -u 4 victim || victim=
  case $victim in ERR*) ;; *) say "killed query answered: $victim"; exit 1 ;; esac
else
  say "the heavy query finished before SHOW QUERIES saw it; KILL of a running query not driven"
fi

for path in /metrics /debug/queries; do
  exec 6<>"/dev/tcp/127.0.0.1/$http_port"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&6
  head -n 1 <&6 | grep -q " 200 " || { say "GET $path did not answer 200"; exit 1; }
  exec 6<&-
done
exec 3<&- 4<&- 5<&-

kill -TERM "$server_pid"
wait "$server_pid" || { say "server exited non-zero:"; tail -n 20 "$tmp/run/server.log" >&2; exit 1; }
server_pid=

say "hrdbms-cli scripted session"
mkdir -p "$tmp/cov/cli"
printf '%s\n' 'CREATE TABLE t (a INT, b FLOAT) PARTITION BY HASH(a);' \
  'INSERT INTO t VALUES (1, 1.5), (2, 2.5);' '\tables' 'SELECT sum(b) FROM t;' '\q' |
  (cd "$tmp/run" && GOCOVERDIR="$tmp/cov/cli" "$tmp/bin/hrdbms-cli") >"$tmp/run/cli.log" 2>&1 ||
  { say "hrdbms-cli failed:"; tail -n 20 "$tmp/run/cli.log" >&2; exit 1; }

say "internal/tpch parity suites"
go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/tpch.prof" \
  -run '^(TestAllQueriesDistributedMatchReference|TestAllQueriesMatchReferenceUnderMemoryPressure|TestColumnarTPCH)$' \
  ./internal/tpch >"$tmp/run/tpch.log" 2>&1 || { say "parity suites failed:"; tail -n 30 "$tmp/run/tpch.log" >&2; exit 1; }

# A second measurement, of the unit tests alone (the invariants-tagged ones
# included): a keep line may only cover a function some test still holds.
say "unit tests (what holds the kept functions)"
go test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile="$tmp/unit.prof" ./internal/... ./cmd/... >"$tmp/run/unit.log" 2>&1 &&
  go test -count=1 -tags invariants -coverpkg=./internal/... -coverprofile="$tmp/inv.prof" \
    ./internal/buffer ./internal/txn >>"$tmp/run/unit.log" 2>&1 ||
  { say "unit tests failed:"; grep -v '^ok' "$tmp/run/unit.log" | tail -n 30 >&2; exit 1; }

# merge <out> <text profile>...: one profile of the internal/ and cmd/
# blocks, counts of identical blocks added up.
merge() {
  local out=$1
  shift
  {
    echo "mode: count"
    tail -q -n +2 "$@" | grep -E '^repro/(internal|cmd)/' |
      awk '{ n[$1] = $2; c[$1] += $3 } END { for (b in n) print b, n[b], c[b] }' | sort
  } >"$out"
}

# functions <profile>: one line per function that holds a statement,
# "<path> <first line> <last line> <name> <reached>". go tool cover -func
# gives file, first line and name; the receiver comes from the declaration
# itself, the last line from the function's last block.
functions() {
  go tool cover -func="$1" | grep -v '^total:' |
    awk -v prof="$1" '
      BEGIN {
        while ((getline line < prof) > 0) {
          if (line ~ /^mode:/) continue
          split(line, f, " ")
          if (f[2] == 0) continue # the block of an empty body holds no statement
          i = index(f[1], ":"); file = substr(f[1], 1, i - 1)
          split(substr(f[1], i + 1), se, ","); split(se[1], s, "."); split(se[2], e, ".")
          nb[file]++; bs[file, nb[file]] = s[1] + 0; be[file, nb[file]] = e[1] + 0
        }
      }
      {
        split($1, p, ":"); file = p[1]
        nf[file]++; fl[file, nf[file]] = p[2] + 0; fn[file, nf[file]] = $2
        fr[file, nf[file]] = ($3 != "0.0%")
      }
      END {
        for (file in nf) {
          path = file; sub(/^repro\//, "", path)
          delete decl; ln = 0
          while ((getline src < path) > 0) decl[++ln] = src
          close(path)
          for (i = 1; i <= nf[file]; i++) {
            first = fl[file, i]; next_first = (i < nf[file]) ? fl[file, i + 1] : 1000000000
            last = 0
            for (b = 1; b <= nb[file]; b++)
              if (bs[file, b] >= first && bs[file, b] < next_first && be[file, b] > last) last = be[file, b]
            if (last == 0) continue # an empty body (a marker method) has nothing to reach
            name = fn[file, i]
            if (match(decl[first], /^func \([^)]*\)/)) {
              recv = substr(decl[first], RSTART + 6, RLENGTH - 7)
              sub(/^.*[ *]/, "", recv); sub(/\[.*$/, "", recv)
              name = recv "." name
            }
            print path, first, last, name, fr[file, i]
          }
        }
      }' | sort -k1,1 -k2,2n
}

dirs=$(find "$tmp/cov" -mindepth 1 -maxdepth 1 -type d | paste -sd, -)
go tool covdata textfmt -i="$dirs" -o "$tmp/bin.prof"
merge "$tmp/traffic.prof" "$tmp/bin.prof" "$tmp/tpch.prof"
merge "$tmp/tests.prof" "$tmp/unit.prof" "$tmp/inv.prof"
functions "$tmp/traffic.prof" >"$tmp/traffic.funcs"
functions "$tmp/tests.prof" | awk '$5 == 1 { print $1 ":" $4 }' >"$tmp/tested"

# The listing, and the keep file against both measurements.
awk -v keep="$keep" -v tested="$tmp/tested" '
  BEGIN {
    classes["safety"]; classes["surface"]; classes["roadmap"]
    while ((getline line < keep) > 0) {
      if (line ~ /^[ \t]*(#|$)/) continue
      if (split(line, f, /[ \t]+/) < 3 || !(f[2] in classes)) { bad[++nbad] = "malformed keep line (want: path:Func  safety|surface|roadmap  reason): " line; continue }
      if (f[1] ~ /:\*$/ && f[2] != "roadmap") { bad[++nbad] = "only a roadmap line may cover a whole file: " line; continue }
      if (f[1] in class) { bad[++nbad] = "duplicate keep line: " f[1]; continue }
      class[f[1]] = f[2]; order[++nkeep] = f[1]
    }
    while ((getline line < tested) > 0) hasTest[line] = 1
  }
  {
    total++
    id = $1 ":" $4
    exists[id] = 1
    if ($5 == 1) { reached[id] = 1; next }
    lines = $3 - $2 + 1
    pkg = $1; sub(/\/[^\/]*$/, "", pkg)
    k = (id in class) ? id : $1 ":*"
    if (k in class) {
      used[k] = 1; cls = class[k]; count[cls]++
      if (!(id in hasTest)) bad[++nbad] = "kept, but no unit test reaches it either: " id
    } else {
      cls = "UNLISTED"; unlisted++
      bad[++nbad] = "unreached and not in " keep ": " id " (" lines " lines)"
    }
    if (pkg != lastpkg) { print pkg; lastpkg = pkg }
    printf "  %-62s %5d  %s\n", id, lines, cls
    unreached++; nlines += lines
  }
  END {
    for (i = 1; i <= nkeep; i++) {
      k = order[i]
      if (k in used) continue
      if (k ~ /:\*$/) bad[++nbad] = "stale keep line (no unreached function left in the file): " k
      else if (k in reached) bad[++nbad] = "stale keep line (now reached by the traffic): " k
      else bad[++nbad] = "stale keep line (no such function): " k
    }
    for (i = 1; i <= nbad; i++) print "deadcode: " bad[i] > "/dev/stderr"
    printf "deadcode: %d unreached (%d safety, %d surface, %d roadmap), %d unlisted; %d lines of %d functions under internal/ and cmd/\n",
      unreached, count["safety"], count["surface"], count["roadmap"], unlisted, nlines, total
    exit nbad > 0
  }' "$tmp/traffic.funcs"

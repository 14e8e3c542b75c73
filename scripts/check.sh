#!/usr/bin/env bash
# Full verification gate: build, vet, repo-specific lint, tests, one race run
# over the concurrency-heavy packages (whole packages, never -run lists: a
# pattern whose test was renamed passes silently), the invariants-tagged
# assertions, the nested benchmark module, the bench/fuzz smokes, and the
# reachability audit of internal/ and cmd/. The executed-work counters of
# the 21 TPC-H queries are gated inside go test (internal/tpch's
# testdata/counters.txt).
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build"
go build ./...

echo "==> go vet"
go vet ./...

echo "==> hrdbms-lint (JSON report: lint-report.json)"
if ! go run ./cmd/hrdbms-lint -json ./... > lint-report.json; then
  echo "lint findings:" >&2
  cat lint-report.json >&2
  exit 1
fi

echo "==> go test"
go test ./...

echo "==> go test -race (every package with goroutines, parity suites or golden plans)"
go test -race ./internal/exec ./internal/cluster ./internal/srv ./internal/buffer \
  ./internal/txn ./internal/obs ./internal/network ./internal/storage ./internal/page \
  ./internal/vec ./internal/compress ./internal/tpch ./internal/opt ./internal/perfmodel ./internal/skipcache ./cmd/hrdbms-server

echo "==> go test -tags invariants (buffer, txn; storage, exec, vec, TPC-H parity and the cluster's front-end parity through poisoned recycled frames and batches)"
go test -tags invariants ./internal/buffer ./internal/txn ./internal/storage ./internal/exec \
  ./internal/vec ./internal/tpch ./internal/cluster

echo "==> nested benchmark module (compile, smoke test, import-surface guard)"
(cd bench && go vet ./... && go test ./...)

# One run over internal/exec's smokes: degree 1 vs degree 4 of the one build
# path (golden parity + throughput); the hash join with a small build under a
# large probe, a q21-shaped large build, and q21's semi and anti joins built
# on either side; the row scan over partsupp-shaped rows (1-in-200 and
# all-pass predicate on an unemitted column); the columnar scan predicates of
# q6, q12, q19 and l_discount > 0.05 over SF0.01 lineitem, and q19's part
# predicate over an SF0.02 row table; and q1's aggregate over typed batches.
echo "==> bench smoke (exec: parallel vs serial build, hash join, row scan, scan predicates, q1's aggregate)"
go test -run '^$' -bench 'BenchmarkParallelVsSerial|BenchmarkHashJoinBuildProbe|BenchmarkRowScan|BenchmarkScanPredicate|BenchmarkAggregateQ1Shape' \
  -benchtime 1x ./internal/exec >/dev/null

echo "==> bench smoke (typed vs boxed page decode, per layout: tagged, fixed, dict; full and 10 %-selective)"
go test -run '^$' -bench BenchmarkTypedVsBoxedDecode -benchtime 1x ./internal/page >/dev/null

echo "==> bench smoke (table-driven vs bit-serial Huffman decode of a sealed page)"
go test -run '^$' -bench BenchmarkHuffmanDecode -benchtime 1x ./internal/compress >/dev/null

echo "==> bench smoke (block-copy vs byte-at-a-time LZ4 decode of a sealed page and of row bytes)"
go test -run '^$' -bench BenchmarkLZ4Decode -benchtime 1x ./internal/compress >/dev/null

echo "==> bench smoke (planning q2, q5, q8 and q9 on the SF0.01 TPC-H catalog: one DP run per inner-join cluster)"
go test -run '^$' -bench BenchmarkPlanTPCH -benchtime 1x ./internal/tpch >/dev/null

echo "==> bench smoke (a Load's statistics refresh: Finish after a 160-row batch on a 60,000-row lineitem-shaped builder)"
go test -run '^$' -bench BenchmarkStatsRefresh -benchtime 1x ./internal/catalog >/dev/null

echo "==> fuzz smoke (the three typed column-page decoders and the code-space accessor over every cell and a fuzzed selection against DecodeInto, every layout, and chain heads: error or agree, a chain inside its overflow file, never panic, never read past the payload)"
go test -run '^$' -fuzz '^FuzzTypedDecode$' -fuzztime 5s ./internal/page >/dev/null

echo "==> fuzz smoke (LIKE kernel: agrees with expr.Like.Eval on any strings and pattern, dictionary-coded and boxed, NOT LIKE and NULL too)"
go test -run '^$' -fuzz '^FuzzLikeKernel$' -fuzztime 5s ./internal/exec >/dev/null

echo "==> fuzz smoke (masked row decoder and its typed twin DecodeRowCells: agree with DecodeRow under any mask, never panic)"
go test -run '^$' -fuzz '^FuzzDecodeRowInto$' -fuzztime 5s ./internal/types >/dev/null

echo "==> fuzz smoke (Huffman decoder: never panics, agrees with the bit-serial reference)"
go test -run '^$' -fuzz '^FuzzHuffmanDecode$' -fuzztime 5s ./internal/compress >/dev/null

echo "==> fuzz smoke (LZ4 decoder: never panics or passes dstSize, agrees with the byte-at-a-time reference)"
go test -run '^$' -fuzz '^FuzzLZ4Decode$' -fuzztime 5s ./internal/compress >/dev/null

echo "==> fuzz smoke (key hash: a column's hash is its boxed value's in every form, INT n and FLOAT n.0 hash alike)"
go test -run '^$' -fuzz '^FuzzKeyHash$' -fuzztime 5s ./internal/vec >/dev/null

echo "==> fuzz smoke (wire decoder: never panics, decodes what EncodeRows and EncodeBatch write back to the same rows)"
go test -run '^$' -fuzz '^FuzzDecodeRows$' -fuzztime 5s ./internal/vec >/dev/null

echo "==> fuzz smoke (SQL parser: never panics, every name it yields is lower-case, string literals keep their case)"
go test -run '^$' -fuzz '^FuzzParseSelect$' -fuzztime 5s ./internal/sqlparse >/dev/null

echo "==> fuzz smoke (WAL record and checkpoint decoders: never panic, decode what encode and encodeCheckpoint write back to the same record)"
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime 5s ./internal/wal >/dev/null

echo "==> fuzz smoke (srv wire reader: a statement within budget comes back without its terminator, a longer line is too long, the next line stays in sync)"
go test -run '^$' -fuzz '^FuzzReadLine$' -fuzztime 5s ./internal/srv >/dev/null

echo "==> reachability audit (full listing: deadcode-report.txt; scripts/deadcode.keep holds what stays unreached)"
scripts/deadcode.sh > deadcode-report.txt
tail -n 1 deadcode-report.txt

echo "==> code size (scripts/loc.sh <ref> diffs it per package against a commit)"
scripts/loc.sh | tail -n 1

echo "OK"

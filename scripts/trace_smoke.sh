#!/usr/bin/env bash
# Trace-smoke: end-to-end exercise of the trace formats. tracegen
# writes the one binary format, block-columnar; the committed fixture
# internal/trace/testdata/verilog-0.01.trace is a legacy varint file
# of verilog at scale 0.01, which the one decoder still reads. Checks:
#
#   - a byte-identical regeneration proves the writer is deterministic
#     (the columnar file is canonical bytes for a given branch
#     sequence — the property the trace pool's GET depends on), and a
#     pinned SHA-256 of a scale-0.02 columnar file proves the bytes are
#     the format's, so a writer rewrite that changes any byte fails,
#   - the columnar file stays within 1.25x of the legacy varint
#     fixture of the same workload and scale (bounds the size the
#     columnar format trades for its block decoder),
#   - predsim produces byte-identical stdout from the generator, the
#     legacy fixture and a fresh columnar file at scale 0.01 (the mmap
#     reader sniffs the magic, so the same -trace flag exercises both
#     arms of the decoder).
#
# Run via `make trace-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/tracegen" ./cmd/tracegen
go build -o "$workdir/predsim" ./cmd/predsim

bench=verilog
scale=0.02
legacy=internal/trace/testdata/verilog-0.01.trace
legacy_scale=0.01

"$workdir/tracegen" -bench "$bench" -scale "$scale" -format columnar -o "$workdir/t.ctrace"
"$workdir/tracegen" -bench "$bench" -scale "$scale" -format columnar -o "$workdir/t2.ctrace"
"$workdir/tracegen" -bench "$bench" -scale "$legacy_scale" -o "$workdir/l.ctrace"

cmp "$workdir/t.ctrace" "$workdir/t2.ctrace"
echo "trace-smoke: columnar writer is deterministic"

want_sha=3e48252960d86fde7ca28cc5eec1550b1aed1b035d1a848b1cb7bdfb4428b3fd
got_sha=$(sha256sum "$workdir/t.ctrace" | cut -d' ' -f1)
if [[ "$got_sha" != "$want_sha" ]]; then
    echo "trace-smoke: columnar file SHA-256 $got_sha, pinned $want_sha: the writer changed the format's bytes" >&2
    exit 1
fi
echo "trace-smoke: columnar file matches the pinned SHA-256"

varint_size=$(wc -c <"$legacy")
columnar_size=$(wc -c <"$workdir/l.ctrace")
if [[ $((columnar_size * 4)) -gt $((varint_size * 5)) ]]; then
    echo "trace-smoke: columnar ($columnar_size B) exceeds 1.25x the legacy varint fixture ($varint_size B)" >&2
    exit 1
fi
echo "trace-smoke: columnar $columnar_size B vs legacy varint $varint_size B at scale $legacy_scale"

for pred in gshare "gskewed:n=11,k=11" "2bcgskew:n=10"; do
    "$workdir/predsim" -bench "$bench" -scale "$legacy_scale" -pred "$pred" >"$workdir/out.bench"
    "$workdir/predsim" -trace "$legacy" -pred "$pred" >"$workdir/out.varint"
    "$workdir/predsim" -trace "$workdir/l.ctrace" -pred "$pred" >"$workdir/out.columnar"
    cmp "$workdir/out.bench" "$workdir/out.varint"
    cmp "$workdir/out.varint" "$workdir/out.columnar"
done
echo "trace-smoke: predsim stdout byte-identical across generator, legacy varint and columnar sources"
echo "trace-smoke: OK"

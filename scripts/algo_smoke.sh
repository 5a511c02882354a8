#!/usr/bin/env bash
# Algo-smoke: end-to-end exercise of the recorded real-algorithm
# workloads (internal/algotrace). Records one instrumented KMP run with
# tracegen and checks the contract the subsystem exists for — recorded
# streams are ordinary traces everywhere:
#
#   - the recording is deterministic (regenerating the columnar file is
#     byte-identical),
#   - predsim produces byte-identical stdout whether it re-records the
#     algorithm (-bench algo:...) or replays the columnar trace file,
#   - a live predserved accepts the spec as a bench, ingests the
#     recorded file, and a sweep addressed by trace_sha256 is
#     byte-identical cold vs cached and equal to the bench-addressed
#     sweep,
#   - SIGTERM drains and the process exits 0.
#
# Run via `make algo-smoke`. Needs jq (request construction only).
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/tracegen" ./cmd/tracegen
go build -o "$workdir/predsim" ./cmd/predsim
go build -o "$workdir/predserved" ./cmd/predserved
go build -o "$workdir/predload" ./cmd/predload
predload="$workdir/predload"

spec='algo:kmp,n=50000,m=6,sigma=2,dist=uniform,pat=rand,seed=9'

# The family listing must advertise the recorded-algorithm workloads.
"$workdir/tracegen" -list >"$workdir/families.txt"
for fam in mp kmp binsearch insertion quick heap scanmax; do
    grep -Eq "^algo:$fam " "$workdir/families.txt"
done
echo "algo-smoke: tracegen -list advertises all recorded-algorithm families"

"$workdir/tracegen" -bench "$spec" -format columnar -o "$workdir/a.ctrace"
"$workdir/tracegen" -bench "$spec" -format columnar -o "$workdir/a2.ctrace"
cmp "$workdir/a.ctrace" "$workdir/a2.ctrace"
echo "algo-smoke: recording is deterministic (columnar bytes identical across runs)"

for pred in "bimodal:n=4,ctr=2" "gshare:n=9,k=8" "gskewed:n=7,k=8"; do
    "$workdir/predsim" -bench "$spec" -pred "$pred" >"$workdir/out.bench"
    "$workdir/predsim" -trace "$workdir/a.ctrace" -pred "$pred" >"$workdir/out.columnar"
    cmp "$workdir/out.bench" "$workdir/out.columnar"
done
echo "algo-smoke: predsim stdout byte-identical across re-recording and the columnar file"

# --- Live server: algo bench, ingest, sweep-by-hash. ---

"$workdir/predserved" -addr 127.0.0.1:0 -store-dir "$workdir/store" \
    -trace-pool "$workdir/pool" \
    >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
server_pid=$!

base=""
for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "algo-smoke: server died at startup" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    base=$(sed -n 's/^predserved listening on \(http:\/\/.*\)$/\1/p' "$workdir/stdout.log")
    [[ -n "$base" ]] && break
    sleep 0.1
done
if [[ -z "$base" ]]; then
    echo "algo-smoke: server never reported its address" >&2
    exit 1
fi
echo "algo-smoke: server at $base"

"$predload" ingest -target "$base" "$workdir/a.ctrace" >"$workdir/ingest.json"
hash=$(jq -r .trace_sha256 "$workdir/ingest.json")
[[ -n "$hash" && "$hash" != "null" ]]

# The pooled segment reads back as the canonical columnar bytes.
"$predload" trace -target "$base" "$hash" >"$workdir/readback.ctrace"
cmp "$workdir/readback.ctrace" "$workdir/a.ctrace"
echo "algo-smoke: ingested recording reads back byte-identical ($hash)"

# Sweep by hash twice (cold, then from the result store) and once
# addressed by the algo spec as a bench: all three byte-identical.
jq -n --arg h "$hash" \
    '{specs: ["bimodal:n=9", "gshare:n=9,k=8", "gskewed:n=7,k=8"], trace_sha256: $h}' \
    >"$workdir/byhash.req"
jq -n --arg b "$spec" \
    '{specs: ["bimodal:n=9", "gshare:n=9,k=8", "gskewed:n=7,k=8"], bench: $b}' \
    >"$workdir/bybench.req"
"$predload" simulate -target "$base" -body "$workdir/byhash.req" >"$workdir/byhash1.json" 2>/dev/null
"$predload" simulate -target "$base" -body "$workdir/byhash.req" >"$workdir/byhash2.json" 2>/dev/null
cmp "$workdir/byhash1.json" "$workdir/byhash2.json"
[[ $(jq '.results | length' "$workdir/byhash1.json") -eq 3 ]]
"$predload" simulate -target "$base" -body "$workdir/bybench.req" >"$workdir/bybench.json" 2>/dev/null
if ! diff <(jq -S '.results' "$workdir/byhash1.json") <(jq -S '.results' "$workdir/bybench.json"); then
    echo "algo-smoke: bench-addressed sweep diverged from hash-addressed sweep" >&2
    exit 1
fi
echo "algo-smoke: sweep by trace_sha256 byte-identical cold vs cached, equal to bench-addressed sweep"

# An unknown algorithm is rejected with the stable workload error code.
jq -n '{specs: ["gshare:n=9,k=8"], bench: "algo:bogosort"}' >"$workdir/bad.req"
if "$predload" simulate -target "$base" -body "$workdir/bad.req" >/dev/null 2>"$workdir/bad.err"; then
    echo "algo-smoke: unknown algorithm accepted" >&2
    exit 1
fi
grep -q "bad_workload" "$workdir/bad.err"
echo "algo-smoke: unknown algorithm rejected with stable error code"

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "algo-smoke: server exited non-zero on SIGTERM" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi
server_pid=""
grep -q "drained" "$workdir/stderr.log"
echo "algo-smoke: clean SIGTERM drain"
echo "algo-smoke: OK"

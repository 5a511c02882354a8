#!/usr/bin/env bash
# Serve-smoke: end-to-end exercise of the prediction service. Builds
# predserved and the predload client, starts the server on a random
# loopback port with an on-disk store, sweeps a 21-cell spec grid
# twice, and checks the contract the subsystem exists for:
#
#   - both sweep responses are byte-identical (cold vs cached),
#   - the second pass is served entirely from the result store
#     (server.simulate.cache_hits advances by exactly 21),
#   - ingesting the same workload twice (once as the committed legacy
#     varint fixture, once as its columnar twin) pools exactly one
#     segment (dedup counter +1, one pool blob), the pooled segment
#     reads back as canonical columnar bytes, and a sweep addressed by
#     trace_sha256 is byte-identical to the same sweep with the trace
#     inlined,
#   - SIGTERM drains and the process exits 0.
#
# All HTTP goes through cmd/predload (the typed internal/client), so
# this script also smoke-tests the client against a real server.
# Run via `make serve-smoke`. Needs jq (request construction only).
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

go build -o "$workdir/predserved" ./cmd/predserved
go build -o "$workdir/predload" ./cmd/predload
go build -o "$workdir/tracegen" ./cmd/tracegen
predload="$workdir/predload"

"$workdir/predserved" -addr 127.0.0.1:0 -store-dir "$workdir/store" \
    -trace-pool "$workdir/pool" \
    >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
server_pid=$!

# The first stdout line is the contract `predserved listening on
# http://host:port` (pinned by cmd/predserved's tests).
base=""
for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: server died at startup" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    base=$(sed -n 's/^predserved listening on \(http:\/\/.*\)$/\1/p' "$workdir/stdout.log")
    [[ -n "$base" ]] && break
    sleep 0.1
done
if [[ -z "$base" ]]; then
    echo "serve-smoke: server never reported its address" >&2
    exit 1
fi
echo "serve-smoke: server at $base"

"$predload" health -target "$base" >"$workdir/health.json"
[[ $(jq -r .status "$workdir/health.json") == ok ]]
[[ $(jq .store.mem_entries "$workdir/health.json") -eq 0 ]]

# A 21-cell grid: the paper's three main organisations at seven sizes.
jq -n '{
    specs: ([range(8; 15)] | map(
        "bimodal:n=\(.)",
        "gshare:n=\(.),k=\(.)",
        "gskewed:n=\(. - 1),k=\(. - 1)")),
    bench: "verilog",
    scale: 0.005
}' >"$workdir/sweep.req"
[[ $(jq '.specs | length' "$workdir/sweep.req") -eq 21 ]]

hits0=$("$predload" metric -target "$base" server.simulate.cache_hits)

"$predload" simulate -target "$base" -body "$workdir/sweep.req" >"$workdir/pass1.json" 2>/dev/null
"$predload" simulate -target "$base" -body "$workdir/sweep.req" >"$workdir/pass2.json" 2>/dev/null

cmp "$workdir/pass1.json" "$workdir/pass2.json"
echo "serve-smoke: 21-cell sweep byte-identical across passes"

[[ $(jq '.results | length' "$workdir/pass1.json") -eq 21 ]]
[[ $(jq '[.results[].result.conditionals] | min' "$workdir/pass1.json") -gt 0 ]]

hits1=$("$predload" metric -target "$base" server.simulate.cache_hits)
if [[ $((hits1 - hits0)) -ne 21 ]]; then
    echo "serve-smoke: cache hit delta $((hits1 - hits0)), want 21" >&2
    exit 1
fi
echo "serve-smoke: second pass served entirely from the store"

# The store directory holds one blob per cell.
blobs=$(find "$workdir/store" -type f | wc -l)
if [[ "$blobs" -ne 21 ]]; then
    echo "serve-smoke: $blobs store blobs, want 21" >&2
    exit 1
fi

# Every error response carries the structured envelope with a stable
# code (the /v1 error contract).
jq -n '{specs: ["gshare:n=999"], bench: "verilog", scale: 0.005}' >"$workdir/bad.req"
if "$predload" simulate -target "$base" -body "$workdir/bad.req" >/dev/null 2>"$workdir/bad.err"; then
    echo "serve-smoke: bad spec was accepted" >&2
    exit 1
fi
grep -q "bad_spec" "$workdir/bad.err"
echo "serve-smoke: bad spec rejected with stable error code"

# --- Trace pool: ingest, dedup, read-back, sweep-by-hash. ---

# The same workload in both serialisations: the committed legacy
# varint fixture (verilog at scale 0.01) and a fresh columnar file of
# it. Ingest must canonicalise them to one pooled segment. The sweep
# above already pooled its bench workload, so assert on deltas, not
# absolute counts.
legacy=internal/trace/testdata/verilog-0.01.trace
"$workdir/tracegen" -bench verilog -scale 0.01 -format columnar -o "$workdir/w.ctrace" 2>/dev/null

pool_blobs0=$(find "$workdir/pool" -maxdepth 1 -name '*.ctrace' | wc -l)
dedup0=$("$predload" metric -target "$base" tracepool.dedup_hits)

"$predload" ingest -target "$base" "$legacy" >"$workdir/ingest1.json"
"$predload" ingest -target "$base" "$workdir/w.ctrace" >"$workdir/ingest2.json"
cmp "$workdir/ingest1.json" "$workdir/ingest2.json"
hash=$(jq -r .trace_sha256 "$workdir/ingest1.json")
[[ -n "$hash" && "$hash" != "null" ]]

dedup1=$("$predload" metric -target "$base" tracepool.dedup_hits)
if [[ $((dedup1 - dedup0)) -ne 1 ]]; then
    echo "serve-smoke: dedup hit delta $((dedup1 - dedup0)), want 1" >&2
    exit 1
fi
pool_blobs1=$(find "$workdir/pool" -maxdepth 1 -name '*.ctrace' | wc -l)
if [[ $((pool_blobs1 - pool_blobs0)) -ne 1 ]]; then
    echo "serve-smoke: double ingest added $((pool_blobs1 - pool_blobs0)) pool blobs, want 1" >&2
    exit 1
fi
echo "serve-smoke: double ingest pooled one segment ($hash)"

# The pooled segment reads back as exactly the canonical columnar
# bytes tracegen wrote.
"$predload" trace -target "$base" "$hash" >"$workdir/readback.ctrace"
cmp "$workdir/readback.ctrace" "$workdir/w.ctrace"
echo "serve-smoke: pooled segment reads back byte-identical to the columnar file"

# Sweeping by hash must match sweeping with the trace inlined.
b64=$(base64 -w0 <"$workdir/w.ctrace")
jq -n --arg h "$hash" \
    '{specs: ["gshare:n=12,k=12", "gskewed:n=11,k=11"], trace_sha256: $h}' \
    >"$workdir/byhash.req"
jq -n --arg b "$b64" \
    '{specs: ["gshare:n=12,k=12", "gskewed:n=11,k=11"], trace_b64: $b}' \
    >"$workdir/inline.req"
"$predload" simulate -target "$base" -body "$workdir/byhash.req" >"$workdir/byhash.json" 2>/dev/null
"$predload" simulate -target "$base" -body "$workdir/inline.req" >"$workdir/inline.json" 2>/dev/null
cmp "$workdir/byhash.json" "$workdir/inline.json"
[[ $(jq '.results | length' "$workdir/byhash.json") -eq 2 ]]
echo "serve-smoke: sweep by trace_sha256 byte-identical to inline trace"

kill -TERM "$server_pid"
if ! wait "$server_pid"; then
    echo "serve-smoke: server exited non-zero on SIGTERM" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi
server_pid=""
grep -q "drained" "$workdir/stderr.log"
echo "serve-smoke: clean SIGTERM drain"
echo "serve-smoke: OK"

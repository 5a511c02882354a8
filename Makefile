# Tiered developer targets. `make check` is the concurrency tier: it
# vets the whole module and runs the race detector over the packages
# that execute simulation cells in parallel (the scheduler, the trace
# cache, the single-pass multi-predictor runner and its cell-parallel
# drain, the HTTP service, its shared result store and trace pool, and
# the telemetry registry). `make verify` is
# the differential tier: the optimized predictors against the
# executable paper spec, plus the fault-injection selftest. `make fuzz`
# runs each fuzz target for FUZZTIME. `make bench` runs the compiled
# kernel vs interface comparison BENCHCOUNT times and snapshots the
# best runs to BENCH_kernel.json, then the whole-trace segmented and
# bitsliced comparison into BENCH_sim.json, then the trace codec
# comparison (varint vs columnar vs mmap) into BENCH_trace.json, then
# a predload zipfian sweep against an in-process server into
# BENCH_serve.json (latency quantiles + cache-hit curve, guarded by
# bench_guard_test.go); `make bench-all` runs the full benchmark suite
# without snapshotting. `make trace-smoke` round-trips both trace
# formats through tracegen and predsim and exercises the server-side
# trace pool. `make algo-smoke` does the same for a recorded
# real-algorithm workload, including a live server's hash-addressed
# sweeps. `make cluster-smoke` boots a 3-node predserved cluster
# and requires its responses byte-identical to a standalone server,
# before and after a reshard.

GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 3

.PHONY: build test check lint verify fuzz bench bench-all output obs-smoke serve-smoke trace-smoke algo-smoke cluster-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

check:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/server ./internal/store ./internal/algotrace ./internal/tracepool ./internal/obs
	$(GO) test -race -count=10 -run 'CellParallel' ./internal/sim

# Lint tier: vet always; staticcheck when installed (CI installs it,
# see .github/workflows/ci.yml; locally `go install
# honnef.co/go/tools/cmd/staticcheck@latest`). Configured by
# staticcheck.conf.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

verify:
	$(GO) run ./cmd/verify -sweep
	$(GO) run ./cmd/verify -codec
	$(GO) run ./cmd/verify -selftest

fuzz:
	$(GO) test -fuzz=FuzzSkewerAgainstSpec -fuzztime=$(FUZZTIME) ./internal/skewfn
	$(GO) test -fuzz=FuzzCounterAgainstSpec -fuzztime=$(FUZZTIME) ./internal/counter
	$(GO) test -fuzz=FuzzTableAgainstCounter -fuzztime=$(FUZZTIME) ./internal/counter
	$(GO) test -fuzz=FuzzBinaryRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzColumnarRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzColumnarUnpack -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/predictor
	$(GO) test -fuzz=FuzzAlgoSpec -fuzztime=$(FUZZTIME) ./internal/algotrace
	$(GO) test -fuzz=FuzzRecorder -fuzztime=$(FUZZTIME) ./internal/algotrace
	$(GO) test -fuzz=FuzzRunSegmented -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -fuzz=FuzzTAGEFoldedHistory -fuzztime=$(FUZZTIME) ./internal/refmodel/diff
	$(GO) test -fuzz=FuzzPerceptronStep -fuzztime=$(FUZZTIME) ./internal/refmodel/diff

bench:
	$(GO) test -bench='Kernel|TraceDecode' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json
	@cat BENCH_kernel.json
	$(GO) test -bench='^BenchmarkSim' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json
	@cat BENCH_sim.json
	$(GO) test -bench='^BenchmarkTraceCodec' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_trace.json
	@cat BENCH_trace.json
	$(GO) run ./cmd/predload sweep -cells 27 -passes 3 -out BENCH_serve.json
	@cat BENCH_serve.json

bench-all:
	$(GO) test -bench=. -benchmem -run '^$$'

# Regenerate the committed full-suite output (timing goes to stderr,
# so the file is byte-identical whatever -jobs is used).
output:
	$(GO) run ./cmd/experiments -all > experiments_output.txt

# Observability smoke: the full suite with every telemetry flag on
# must still produce byte-identical stdout, while demonstrably
# emitting interval curves and a run manifest.
obs-smoke:
	$(GO) run ./cmd/experiments -all -debug-addr localhost:0 -progress \
		-intervals 100000 -intervals-out /tmp/gskew_intervals.json \
		-manifest /tmp/gskew_manifest.json > /tmp/gskew_obs_output.txt
	cmp experiments_output.txt /tmp/gskew_obs_output.txt
	@test -s /tmp/gskew_intervals.json && test -s /tmp/gskew_manifest.json
	@echo "obs-smoke: stdout byte-identical; curves and manifest emitted"

# Service smoke: boot predserved, sweep a 21-cell spec grid twice,
# check byte-identity and full cache reuse, drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Trace-format smoke: tracegen writes the same workload in both
# formats, predsim must produce byte-identical stdout from each, and
# the mmap path must agree with the streaming path.
trace-smoke:
	./scripts/trace_smoke.sh

# Recorded-algorithm smoke: one instrumented recording must replay
# byte-identically from re-recording, varint and columnar through
# predsim, and a live predserved must ingest it and serve the
# hash-addressed sweep byte-identical cold vs cached and equal to the
# bench-addressed sweep.
algo-smoke:
	./scripts/algo_smoke.sh

# Cluster smoke: a standalone node and a 3-node cluster must serve the
# identical 27-cell sweep byte-for-byte, peer fill must replace
# recomputation on warm nodes, and a topology push (reshard) must
# change no response byte.
cluster-smoke:
	./scripts/cluster_smoke.sh

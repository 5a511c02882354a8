# Tiered developer targets. `make check` is the concurrency tier: it
# vets the whole module and runs the race detector over the packages
# that execute simulation cells in parallel (the scheduler, the trace
# cache, the single-pass multi-predictor runner and its cell-parallel
# drain, the HTTP service, its shared result store and trace pool, the
# two-tier blob cache and LRU under them, the telemetry registry, and
# the program generator and workloads, whose pooled generation
# workspaces scheduler cells share), then repeats the cell-parallel
# drain and the experiments cell memo's single-flight tests. `make verify` is the differential tier: the
# optimized predictors against the executable paper spec, plus the
# fault-injection selftest. `make fuzz`
# runs each fuzz target for FUZZTIME, among them the cell-parallel
# drain against the serial one (FuzzRunCellParallel), every
# Options.Segments value against its contract (FuzzRunSegmented), the
# compiled workload walker against the tree-walking reference
# (FuzzWalkerCompiled), the dense-ID aliasing tables against their
# map- and vector-keyed references (FuzzAliasDense), the dense-ID
# fully-associative LRU predictor against its lru.Cache reference
# (FuzzAssocLRUDense), and the experiments' ID-stream replays of the
# unaliased table and the interference classification against the sim
# and alias.Interference paths they replaced (FuzzUnaliasedReplay,
# FuzzInterferenceReplay; these two skip their package's default-scale
# unit tests with -run '^$'). `make bench`
# runs the compiled kernel vs interface comparison BENCHCOUNT times and
# snapshots the best runs to BENCH_kernel.json, then the whole-trace
# serial vs auto (cell-parallel) and scalar vs bitsliced sweeps into
# BENCH_sim.json, then the trace codec (mmap columnar decode, columnar
# encode, content hash) into BENCH_trace.json, then building each
# benchmark's generator (workload.New, allocs/op bounded) into
# BENCH_workload.json, then
# a predload zipfian sweep against an in-process server into
# BENCH_serve.json (latency quantiles + cache-hit curve, guarded by
# bench_guard_test.go); `make bench-all` runs the full benchmark suite
# without snapshotting. `make trace-smoke` replays the committed legacy
# varint fixture and tracegen's columnar files through predsim.
# `make algo-smoke` does the same for a recorded real-algorithm
# workload, including a live server's trace pool and hash-addressed
# sweeps.

GO ?= go
FUZZTIME ?= 10s
BENCHCOUNT ?= 3

.PHONY: build test check lint verify fuzz bench bench-all output obs-smoke serve-smoke trace-smoke algo-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

check:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments ./internal/sim ./internal/server ./internal/store ./internal/algotrace ./internal/tracepool ./internal/blob ./internal/lru ./internal/obs ./internal/trace ./internal/cfg ./internal/workload
	$(GO) test -race -count=10 -run 'CellParallel' ./internal/sim
	$(GO) test -race -count=5 -run 'Memo' ./internal/experiments

# Lint tier: gofmt must list no Go file outside hidden directories
# (the benchmark's .bench_build can hold generated sources); vet
# always; staticcheck when installed (CI installs it, see
# .github/workflows/ci.yml; locally `go install
# honnef.co/go/tools/cmd/staticcheck@latest`). Configured by
# staticcheck.conf.
lint:
	@unformatted=$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files are not formatted:"; echo "$$unformatted"; exit 1; \
	fi
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
	$(GO) test -fuzz=FuzzColumnarEncode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/predictor
	$(GO) test -fuzz=FuzzAlgoSpec -fuzztime=$(FUZZTIME) ./internal/algotrace
	$(GO) test -fuzz=FuzzRecorder -fuzztime=$(FUZZTIME) ./internal/algotrace
	$(GO) test -fuzz=FuzzRunCellParallel -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -fuzz=FuzzRunSegmented -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -fuzz=FuzzTAGEFoldedHistory -fuzztime=$(FUZZTIME) ./internal/refmodel/diff
	$(GO) test -fuzz=FuzzPerceptronStep -fuzztime=$(FUZZTIME) ./internal/refmodel/diff
	$(GO) test -fuzz=FuzzTAGEKernel -fuzztime=$(FUZZTIME) ./internal/refmodel/diff
	$(GO) test -fuzz=FuzzSkewShapes -fuzztime=$(FUZZTIME) ./internal/kernel
	$(GO) test -fuzz=FuzzAliasDense -fuzztime=$(FUZZTIME) ./internal/alias
	$(GO) test -fuzz=FuzzAssocLRUDense -fuzztime=$(FUZZTIME) ./internal/predictor
	$(GO) test -fuzz=FuzzWalkerCompiled -fuzztime=$(FUZZTIME) ./internal/cfg
	$(GO) test -run '^$$' -fuzz=FuzzUnaliasedReplay -fuzztime=$(FUZZTIME) ./internal/experiments
	$(GO) test -run '^$$' -fuzz=FuzzInterferenceReplay -fuzztime=$(FUZZTIME) ./internal/experiments

bench:
	$(GO) test -bench='Kernel' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json
	@cat BENCH_kernel.json
	$(GO) test -bench='^BenchmarkSim' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json
	@cat BENCH_sim.json
	$(GO) test -bench='^BenchmarkTraceCodec' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_trace.json
	@cat BENCH_trace.json
	$(GO) test -bench='^BenchmarkWorkloadNew' -benchmem -count=$(BENCHCOUNT) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_workload.json
	@cat BENCH_workload.json
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

# Trace-format smoke: tracegen's columnar writer must be deterministic
# and match a pinned SHA-256, and predsim must produce byte-identical
# stdout from the generator, a columnar file and the committed legacy
# varint fixture of the same workload.
trace-smoke:
	./scripts/trace_smoke.sh

# Recorded-algorithm smoke: one instrumented recording must replay
# byte-identically from re-recording and its columnar file through
# predsim, and a live predserved must ingest it and serve the
# hash-addressed sweep byte-identical cold vs cached and equal to the
# bench-addressed sweep.
algo-smoke:
	./scripts/algo_smoke.sh

package gskew_test

import (
	"encoding/json"
	"os"
	"testing"

	"gskew/internal/workload"
)

// The committed benchmark snapshots are artifacts with claims
// attached: the bitsliced group kernel beats the scalar kernels per
// lane, every compiled skewed shape beats its interface path, a
// cell-parallel sweep beats the serial one, the trace codec's batch
// decode and writer do not allocate, and building a benchmark's
// generator makes a bounded number of allocations. These tests re-assert
// those relations from the snapshots themselves, so a regression that
// survives into a regenerated BENCH_*.json fails the suite rather
// than silently shipping. All comparisons are within one
// snapshot (one machine, one run), never across files.

// benchSnapshot mirrors the cmd/benchjson document shape.
type benchSnapshot struct {
	Benchmarks []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

func loadSnapshot(t *testing.T, path string) map[string]float64 {
	t.Helper()
	ns, _ := loadSnapshotFull(t, path)
	return ns
}

func loadSnapshotFull(t *testing.T, path string) (ns map[string]float64, allocs map[string]int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with `make bench`)", path, err)
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	ns = make(map[string]float64, len(snap.Benchmarks))
	allocs = make(map[string]int64, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		ns[b.Name] = b.NsPerOp
		allocs[b.Name] = b.AllocsPerOp
	}
	return ns, allocs
}

// faster asserts ns[a] < ns[b] within one snapshot.
func faster(t *testing.T, ns map[string]float64, a, b string) {
	t.Helper()
	na, oka := ns[a]
	nb, okb := ns[b]
	if !oka || !okb {
		t.Fatalf("snapshot missing %q (%v) or %q (%v); regenerate with `make bench`", a, oka, b, okb)
	}
	if na >= nb {
		t.Errorf("%s (%.4g ns/op) is not faster than %s (%.4g ns/op)", a, na, b, nb)
	}
}

// TestBenchSnapshotStepBatch64: the bitsliced group kernel's ns/op is
// per lane-step, directly comparable to the scalar StepBatch ns/op
// per step. At 8 and 64 lanes it must beat the scalar kernel of the
// same predictor shape.
func TestBenchSnapshotStepBatch64(t *testing.T) {
	ns := loadSnapshot(t, "BENCH_kernel.json")
	for _, shape := range []string{"gshare16k", "egskew3x4k"} {
		scalar := "KernelStepBatch/" + shape
		for _, lanes := range []string{"lanes8", "lanes64"} {
			faster(t, ns, "KernelStepBatch64/"+shape+"/"+lanes, scalar)
		}
	}
}

// TestBenchSnapshotSkewShapes: the wider and shared-hysteresis skews
// compile, so each whole-run kernel arm must beat its interface arm.
func TestBenchSnapshotSkewShapes(t *testing.T) {
	ns := loadSnapshot(t, "BENCH_kernel.json")
	for _, pair := range []string{"KernelGSkewed5x4k", "KernelGSkewed7x4k", "KernelGSkewedShh"} {
		faster(t, ns, pair+"/kernel", pair+"/interface")
	}
}

// TestBenchSnapshotSim: the whole-trace snapshot must show the
// automatic (cell-parallel) mixed-geometry sweep beating the serial
// one, and the bitsliced sweep beating the scalar-kernel sweep, per
// branch per predictor. No one-predictor relation: with one predictor
// auto and serial run identical code, so it would compare noise.
func TestBenchSnapshotSim(t *testing.T) {
	ns := loadSnapshot(t, "BENCH_sim.json")
	faster(t, ns, "SimAuto/auto", "SimAuto/serial")
	faster(t, ns, "SimBitsliced/lanes64", "SimBitsliced/lanes1")
}

// serveSnapshot mirrors cmd/predload's sweep report (BENCH_serve.json).
type serveSnapshot struct {
	ColdP50US int64 `json:"cold_p50_us"`
	CachedP50 int64 `json:"cached_p50_us"`
	Passes    []struct {
		Pass    int     `json:"pass"`
		HitRate float64 `json:"hit_rate"`
		P50US   int64   `json:"p50_us"`
		P99US   int64   `json:"p99_us"`
	} `json:"passes"`
	Identical bool `json:"bodies_identical"`
}

// TestBenchSnapshotServe: the service snapshot must show the content-
// addressed store doing its job — a cached cell is served faster than
// a cold simulation, the zipfian hit rate rises pass over pass as the
// working set fills in, and every response body in the run was
// byte-identical per cell.
func TestBenchSnapshotServe(t *testing.T) {
	data, err := os.ReadFile("BENCH_serve.json")
	if err != nil {
		t.Fatalf("reading BENCH_serve.json: %v (regenerate with `make bench`)", err)
	}
	var snap serveSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("parsing BENCH_serve.json: %v", err)
	}
	if !snap.Identical {
		t.Fatal("bodies_identical = false; a cell's response bytes varied within the run")
	}
	if snap.ColdP50US <= 0 || snap.CachedP50 <= 0 {
		t.Fatalf("latency quantiles missing (cold_p50_us=%d cached_p50_us=%d); regenerate with `make bench`", snap.ColdP50US, snap.CachedP50)
	}
	if snap.CachedP50 >= snap.ColdP50US {
		t.Errorf("cached p50 (%d us) is not faster than cold p50 (%d us)", snap.CachedP50, snap.ColdP50US)
	}
	if len(snap.Passes) < 2 {
		t.Fatalf("snapshot has %d passes, want at least 2 for a hit-rate curve", len(snap.Passes))
	}
	for i := 1; i < len(snap.Passes); i++ {
		prev, cur := snap.Passes[i-1], snap.Passes[i]
		if cur.HitRate < prev.HitRate {
			t.Errorf("hit rate fell from %.3f (pass %d) to %.3f (pass %d); the zipfian working set should only fill in",
				prev.HitRate, prev.Pass, cur.HitRate, cur.Pass)
		}
	}
	first, last := snap.Passes[0], snap.Passes[len(snap.Passes)-1]
	if last.HitRate <= first.HitRate {
		t.Errorf("hit rate did not rise across passes (%.3f -> %.3f)", first.HitRate, last.HitRate)
	}
}

// TestBenchSnapshotTraceCodec: the mmap columnar batch decode, the
// path predsim -trace and the benchmark's replay take, must not
// allocate in the steady state.
func TestBenchSnapshotTraceCodec(t *testing.T) {
	_, allocs := loadSnapshotFull(t, "BENCH_trace.json")
	const name = "TraceCodec/mmap-columnar"
	if n, ok := allocs[name]; !ok {
		t.Errorf("snapshot missing %q; regenerate with `make bench`", name)
	} else if n != 0 {
		t.Errorf("%s allocates %d allocs/op; the batch decode path must be allocation-free", name, n)
	}
}

// TestBenchSnapshotTraceEncode: columnar encoding through a reused
// ColumnarWriter must not allocate — the block writer's PC table,
// dictionary and payload scratch are reused across blocks.
func TestBenchSnapshotTraceEncode(t *testing.T) {
	_, allocs := loadSnapshotFull(t, "BENCH_trace.json")
	const name = "TraceCodec/encode-columnar"
	if n, ok := allocs[name]; !ok {
		t.Errorf("snapshot missing %q; regenerate with `make bench`", name)
	} else if n != 0 {
		t.Errorf("%s allocates %d allocs/op; the columnar writer must be allocation-free per record", name, n)
	}
}

// workloadNewAllocsBound bounds the allocations of building one
// benchmark's generator. Its programs are generated and compiled in
// pooled workspaces, so each of its three or four processes costs a
// few allocations (its walker and procedure names), none per site:
// before that, real_gcc's generator took 79,768.
const workloadNewAllocsBound = 50

// TestBenchSnapshotWorkloadNew: building each benchmark's generator
// (workload.New) stays within workloadNewAllocsBound allocs/op.
func TestBenchSnapshotWorkloadNew(t *testing.T) {
	_, allocs := loadSnapshotFull(t, "BENCH_workload.json")
	for _, name := range workload.Names() {
		key := "WorkloadNew/" + name
		if n, ok := allocs[key]; !ok {
			t.Errorf("snapshot missing %q; regenerate with `make bench`", key)
		} else if n > workloadNewAllocsBound {
			t.Errorf("%s allocates %d allocs/op, want at most %d", key, n, workloadNewAllocsBound)
		}
	}
}

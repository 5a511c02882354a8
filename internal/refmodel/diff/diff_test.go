package diff

import (
	"bytes"
	"strings"
	"testing"

	"gskew/internal/trace"
)

// TestDefaultSweepShape: the sweep covers every family, both update
// policies for the skewed families, and at least three configurations
// per (family, policy) pair.
func TestDefaultSweepShape(t *testing.T) {
	counts := make(map[string]int)
	for _, c := range DefaultSweep() {
		key := c.Family
		switch c.Family {
		case "gskewed", "egskew":
			key += "/" + map[bool]string{true: "partial", false: "total"}[c.Partial]
		}
		counts[key]++
	}
	for _, key := range []string{
		"bimodal", "gshare", "gselect",
		"gskewed/partial", "gskewed/total", "egskew/partial", "egskew/total",
		"2bcgskew", "tage", "perceptron",
	} {
		if counts[key] < 3 {
			t.Errorf("sweep has %d cells for %s, want >= 3", counts[key], key)
		}
	}
}

// TestSweepClean: every cell of the default sweep verifies with zero
// divergences on both implementation paths. This is the in-tree
// (shortened) version of `verify -sweep`.
func TestSweepClean(t *testing.T) {
	branches := 4000
	if testing.Short() {
		branches = 800
	}
	var log bytes.Buffer
	results, err := Sweep(DefaultSweep(), Options{Branches: branches, Seed: 1, Log: &log})
	if err != nil {
		t.Fatalf("sweep error: %v\n%s", err, log.String())
	}
	for _, r := range results {
		if r.Div != nil {
			t.Errorf("cell %s diverged: %v (seed %d, shrunk to %d records)",
				r.Cell, r.Div, r.Seed, len(r.Shrunk))
		}
		if r.Steps == 0 {
			t.Errorf("cell %s checked zero steps", r.Cell)
		}
	}
}

// TestCellRoundTrip: every sweep cell is findable by its name, and
// both its spec and impl are constructible.
func TestCellRoundTrip(t *testing.T) {
	for _, c := range DefaultSweep() {
		got, err := CellByName(c.String())
		if err != nil {
			t.Fatalf("CellByName(%q): %v", c, err)
		}
		if got != c {
			t.Fatalf("CellByName(%q) = %+v, want %+v", c, got, c)
		}
		if _, err := c.Spec(); err != nil {
			t.Errorf("cell %s: spec: %v", c, err)
		}
		if _, err := c.Impl(); err != nil {
			t.Errorf("cell %s: impl: %v", c, err)
		}
	}
	if _, err := CellByName("oracle/n64"); err == nil {
		t.Error("CellByName accepted an unknown cell")
	}
}

// TestTraceForDeterministic: the same seed reproduces the identical
// trace — the property the printed replay seed relies on.
func TestTraceForDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		a, err := TraceFor(seed, 2000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := TraceFor(seed, 2000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("seed %d: lengths %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: record %d differs: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestSelfTestCatchesInjectedFaults is the acceptance check for the
// harness: a deliberately injected off-by-one (and friends) must be
// caught and shrunk to a counterexample of at most 50 trace records.
func TestSelfTestCatchesInjectedFaults(t *testing.T) {
	cells := []Cell{
		{Family: "gshare", N: 8, Hist: 6, Ctr: 2},
		{Family: "gselect", N: 8, Hist: 4, Ctr: 2},
		{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true},
		{Family: "egskew", N: 6, Hist: 8, Ctr: 2, Partial: false},
		{Family: "bimodal", N: 8, Ctr: 2},
		{Family: "2bcgskew", N: 6, Short: 4, Hist: 10, Ctr: 2},
		{Family: "tage", N: 6, Hist: 16, Ctr: 3, Tables: 4, Tag: 6},
		{Family: "unaliased", Hist: 8, Ctr: 2},
		{Family: "assoc-lru", N: 3, Ctr: 2},
		{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true, Banks: 5},
		{Family: "gskewed", N: 6, Hist: 4, Ctr: 2, Partial: true, SharedHyst: 1},
	}
	var log bytes.Buffer
	results, err := SelfTest(cells, 4000, 2, 50, &log)
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, log.String())
	}
	if len(results) == 0 {
		t.Fatal("selftest ran zero injections")
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Mutant] = true
		if !r.Caught {
			t.Errorf("%s/%s escaped the harness", r.Cell, r.Mutant)
		} else if r.ShrunkLen == 0 || r.ShrunkLen > 50 {
			t.Errorf("%s/%s shrunk to %d records, want 1..50", r.Cell, r.Mutant, r.ShrunkLen)
		}
	}
	// Planted faults are checked on the compiled kernels too.
	for _, name := range []string{
		"2bcgskew-meta-flip", "2bcgskew-meta-flip/kernel",
		"tage-fold-off-by-one", "tage-fold-off-by-one/kernel",
		"assoc-lru-evicts-mru", "unaliased-strong-start",
		"mbank-rotation-off-by-one", "mbank-rotation-off-by-one/kernel",
		"shared-hyst-private", "shared-hyst-private/kernel",
	} {
		if !seen[name] {
			t.Errorf("selftest never injected %s", name)
		}
	}
}

// TestKernelLUTFaultReachedOnWorkloadTrace pins a seed on which a LUT
// fault at a fixed entry escaped: seed 12 is a workload trace, and with
// six history bits under a six-bit index V1 is the history alone, which
// never reads zero in its first 4000 conditionals. Planted at the first
// conditional's V1 entry, the fault must be caught and shrunk.
func TestKernelLUTFaultReachedOnWorkloadTrace(t *testing.T) {
	c := Cell{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true, SharedHyst: 1}
	var log bytes.Buffer
	results, err := SelfTest([]Cell{c}, 4000, 12, 50, &log)
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, log.String())
	}
	for _, r := range results {
		if r.Mutant == "kernel-lut-off-by-one" {
			return
		}
	}
	t.Fatalf("selftest never planted kernel-lut-off-by-one in %s", c)
}

// TestShrinkIsOneMinimal: the shrunk counterexample still reproduces
// the divergence, and deleting any single record makes it vanish.
func TestShrinkIsOneMinimal(t *testing.T) {
	c := Cell{Family: "gshare", N: 6, Hist: 4, Ctr: 2}
	build := Mutants()[0].Build  // addr-off-by-one
	tr, err := TraceFor(2, 4000) // uniform-random mode
	if err != nil {
		t.Fatal(err)
	}
	shrunk := ShrinkBuilt(tr, c, build, PathPair)
	if len(shrunk) == 0 {
		t.Fatal("mutant not caught, nothing to shrink")
	}
	if div, err := CheckBuilt(shrunk, c, build, PathPair); err != nil || div == nil {
		t.Fatalf("shrunk trace does not reproduce: div=%v err=%v", div, err)
	}
	for i := range shrunk {
		cand := append(append([]trace.Branch(nil), shrunk[:i]...), shrunk[i+1:]...)
		if len(cand) == 0 {
			continue
		}
		if div, _ := CheckBuilt(cand, c, build, PathPair); div != nil {
			t.Fatalf("not 1-minimal: still diverges without record %d of %d", i, len(shrunk))
		}
	}
}

// TestShrinkOnCleanTraceReturnsNil: Shrink refuses to "shrink" a trace
// that does not diverge.
func TestShrinkOnCleanTraceReturnsNil(t *testing.T) {
	c := Cell{Family: "gshare", N: 8, Hist: 6, Ctr: 2}
	tr, err := TraceFor(2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := Shrink(tr, c, PathPair); got != nil {
		t.Fatalf("Shrink on a clean trace returned %d records, want nil", len(got))
	}
}

// TestWriteCounterexampleRoundTrips: the rendered counterexample is a
// valid text trace with a replay header.
func TestWriteCounterexampleRoundTrips(t *testing.T) {
	c := Cell{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true}
	tr := []trace.Branch{
		{PC: 0x10, Taken: true, Kind: trace.Conditional},
		{PC: 0x11, Taken: true, Kind: trace.Unconditional},
		{PC: 0x12, Taken: false, Kind: trace.Conditional},
	}
	var buf bytes.Buffer
	if err := WriteCounterexample(&buf, c, 42, PathStep, tr); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, c.String()) || !strings.Contains(text, "seed 42") {
		t.Errorf("header missing cell or seed:\n%s", text)
	}
	got, err := trace.ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("counterexample does not re-parse: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], tr[i])
		}
	}
}

// TestVerifyCellCoversAllPaths: a clean cell is checked on the pair,
// step and kernel paths (three full trace replays).
func TestVerifyCellCoversAllPaths(t *testing.T) {
	c := Cell{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true}
	res, err := VerifyCell(c, 2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Div != nil {
		t.Fatalf("cell diverged: %v", res.Div)
	}
	tr, err := TraceFor(2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tr) * len(Paths()); res.Steps != want {
		t.Errorf("Steps = %d, want %d (%d paths x %d records)", res.Steps, want, len(Paths()), len(tr))
	}
}

// TestKernelFaultCaughtAndShrunk pins the kernel arm's fault-injection
// contract directly: a LUT off-by-one or a joint-table miss flip
// planted into a compiled skewed or 2Bc-gskew kernel must diverge from
// the specification, and the witness must shrink to a small 1-minimal
// counterexample that still reproduces.
func TestKernelFaultCaughtAndShrunk(t *testing.T) {
	lut := KernelFault{Bank: 1, Half: 0, Entry: 0, Delta: 1}
	for _, tc := range []struct {
		c     Cell
		fault KernelFault
	}{
		{Cell{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true}, lut},
		{Cell{Family: "egskew", N: 6, Hist: 8, Ctr: 2}, lut},
		{Cell{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true}, kernelJointFault(Cell{Ctr: 2})},
		{Cell{Family: "egskew", N: 7, Hist: 9, Ctr: 3}, kernelJointFault(Cell{Ctr: 3})},
		{Cell{Family: "2bcgskew", N: 6, Short: 4, Hist: 10, Ctr: 2}, kernelJointFault(Cell{Family: "2bcgskew"})},
	} {
		c, fault := tc.c, tc.fault
		tr, err := TraceFor(2, 4000)
		if err != nil {
			t.Fatal(err)
		}
		div, err := CheckKernelTampered(tr, c, fault)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if div == nil {
			t.Fatalf("%s: planted fault %+v escaped the kernel arm", c, fault)
		}
		shrunk := ShrinkKernelTampered(tr, c, fault)
		if len(shrunk) == 0 || len(shrunk) > 50 {
			t.Fatalf("%s: shrunk to %d records, want 1..50", c, len(shrunk))
		}
		if div, err := CheckKernelTampered(shrunk, c, fault); err != nil || div == nil {
			t.Fatalf("%s: shrunk trace does not reproduce: div=%v err=%v", c, div, err)
		}
		// The untampered kernel must be clean on the same trace (the
		// divergence is the fault, not the kernel).
		if div, err := Check(tr, c, PathKernel); err != nil || div != nil {
			t.Fatalf("%s: honest kernel diverged on the same trace: div=%v err=%v", c, div, err)
		}
	}
}

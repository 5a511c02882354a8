package diff_test

import (
	"testing"

	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/refmodel/diff"
	"gskew/internal/trace"
)

// FuzzTAGEFoldedHistory checks the optimized folded-history hash
// (chunked XOR on machine words) against the refmodel transcription
// (bit-by-bit on bit strings) over arbitrary histories and fold
// shapes. The fold feeds every TAGE index and tag, so this is the
// arithmetic heart of the family.
func FuzzTAGEFoldedHistory(f *testing.F) {
	f.Add(uint64(0), uint(0), uint(1))
	f.Add(uint64(0xDEADBEEF), uint(20), uint(7))
	f.Add(^uint64(0), uint(64), uint(11))
	f.Add(uint64(0x123456789ABCDEF0), uint(63), uint(1))
	f.Fuzz(func(t *testing.T, hist uint64, length, width uint) {
		length %= 65         // [0, 64]
		width = 1 + width%63 // [1, 63]
		got := predictor.FoldHistory(hist, length, width)
		want := refmodel.FoldedHistory(hist, length, width)
		if got != want {
			t.Fatalf("FoldHistory(%#x, %d, %d) = %#x, spec %#x",
				hist, length, width, got, want)
		}
	})
}

// FuzzPerceptronStep replays arbitrary branch streams through the
// optimized hashed perceptron and its refmodel spec over fuzzed
// configurations, on both the Predict/Update and the fused Step
// paths, requiring agreement at every conditional. The trace is the
// fuzz input's bytes, two bits per branch, PCs drawn from a small
// window so weight aliasing is heavy.
func FuzzPerceptronStep(f *testing.F) {
	f.Add([]byte{}, uint(6), uint(10), uint(3), uint(6))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, uint(4), uint(12), uint(2), uint(8))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}, uint(7), uint(3), uint(6), uint(1))
	f.Fuzz(func(t *testing.T, data []byte, n, k, tables, wBits uint) {
		cell := diff.Cell{
			Family: "perceptron",
			N:      1 + n%8,
			Hist:   k % 20,
			Ctr:    1 + wBits%8,
			Tables: 2 + int(tables%5),
		}
		branches := fuzzBranches(data)
		for _, path := range []diff.Path{diff.PathPair, diff.PathStep} {
			div, err := diff.Check(branches, cell, path)
			if err != nil {
				t.Fatal(err)
			}
			if div != nil {
				t.Fatalf("%s diverged on %s: %v", cell, path, div)
			}
		}
	})
}

// fuzzBranches decodes a fuzz input into a branch stream, two bits per
// branch, PCs drawn from a small window so table aliasing is heavy.
func fuzzBranches(data []byte) []trace.Branch {
	if len(data) > 4096 {
		data = data[:4096]
	}
	branches := make([]trace.Branch, 0, 4*len(data))
	for _, b := range data {
		for j := 0; j < 4; j++ {
			bits := b >> (2 * j)
			kind := trace.Conditional
			if bits&2 != 0 && j == 3 {
				kind = trace.Unconditional
			}
			branches = append(branches, trace.Branch{
				PC:    uint64(0x40 + (b>>2)%29),
				Taken: bits&1 != 0,
				Kind:  kind,
			})
		}
	}
	return branches
}

// FuzzTAGEKernel replays arbitrary branch streams through the
// compiled TAGE kernel and the refmodel spec over fuzzed
// configurations — one to eight components, histories inside one
// hash-row chunk and across all three, tag and counter widths —
// requiring agreement at every conditional.
func FuzzTAGEKernel(f *testing.F) {
	f.Add([]byte{}, uint(6), uint(12), uint(3), uint(5), uint(2))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, uint(4), uint(28), uint(5), uint(9), uint(3))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}, uint(2), uint(30), uint(8), uint(16), uint(1))
	f.Fuzz(func(t *testing.T, data []byte, n, k, tables, tag, ctr uint) {
		cell := diff.Cell{
			Family: "tage",
			N:      2 + n%8,
			Hist:   4 + k%27,
			Ctr:    1 + ctr%4,
			Tables: 1 + int(tables%8),
			Tag:    2 + tag%15,
		}
		div, err := diff.Check(fuzzBranches(data), cell, diff.PathKernel)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("%s diverged on %s: %v", cell, diff.PathKernel, div)
		}
	})
}

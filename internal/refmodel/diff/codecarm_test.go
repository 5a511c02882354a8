package diff

import (
	"io"
	"testing"
)

// TestVerifyCodecs runs the codec arm over a small cell subset: every
// decode path must reproduce the generated trace and its simulation
// result exactly.
func TestVerifyCodecs(t *testing.T) {
	cells := []Cell{
		{Family: "bimodal", N: 8, Ctr: 2},
		{Family: "gshare", N: 8, Hist: 6, Ctr: 2},
		{Family: "gskewed", N: 6, Hist: 6, Ctr: 2, Partial: true},
	}
	records, err := VerifyCodecs(cells, 8000, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Two decode paths per cell; the IBS-like generator can overshoot
	// the requested conditional count, so lower-bound only.
	if records < 2*len(cells)*8000 {
		t.Fatalf("codec arm checked %d records, want at least %d", records, 2*len(cells)*8000)
	}
}

// TestCodecSelfTest: the planted bitpack-width fault must be caught on
// every generator mode (the three seeds cover all TraceFor modes).
func TestCodecSelfTest(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		if err := CodecSelfTest(8000, seed, io.Discard); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

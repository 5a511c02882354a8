package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical C implementation seeded with 0.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("SplitMix64(0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMixStep(t *testing.T) {
	// Mix64(x) must equal the first output of a SplitMix64 seeded with x.
	f := func(x uint64) bool {
		return Mix64(x) == NewSplitMix64(x).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXoshiroKnownValues(t *testing.T) {
	// xoshiro256** seeded through splitmix64 from 0; pins the stream
	// every synthetic workload is built from.
	want := []uint64{
		0x99ec5f36cb75f2b4,
		0xbf6e1f784956452a,
		0x1a5f849d4933e6e0,
		0x6aa594f1262d2d2c,
		0xbba5ad4a1f842e59,
	}
	x := NewXoshiro256(0)
	for i, w := range want {
		if got := x.Uint64(); got != w {
			t.Errorf("Xoshiro256(0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a := NewXoshiro256(42)
	b := NewXoshiro256(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %#x vs %#x", i, av, bv)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := NewXoshiro256(1)
	b := NewXoshiro256(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("generators with different seeds produced %d/100 equal outputs", same)
	}
}

func TestUint64nRange(t *testing.T) {
	x := NewXoshiro256(7)
	for _, n := range []uint64{1, 2, 3, 7, 16, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := x.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			NewXoshiro256(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared check over 10 buckets; threshold is the 99.9th
	// percentile of chi2 with 9 degrees of freedom (27.88).
	x := NewXoshiro256(99)
	const buckets = 10
	const samples = 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[x.Uint64n(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Errorf("Uint64n distribution too skewed: chi2 = %.2f, counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := x.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	x := NewXoshiro256(5)
	for i := 0; i < 100; i++ {
		if x.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !x.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if x.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !x.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	x := NewXoshiro256(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %.4f", p)
	}
}

func TestGeometricMean(t *testing.T) {
	x := NewXoshiro256(13)
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += x.Geometric(0.25)
	}
	mean := float64(sum) / n
	if math.Abs(mean-4.0) > 0.15 {
		t.Errorf("Geometric(0.25) mean = %.3f, want ~4", mean)
	}
}

func TestGeometricMinimumIsOne(t *testing.T) {
	x := NewXoshiro256(17)
	for i := 0; i < 10000; i++ {
		if v := x.Geometric(0.9); v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, -1, 1.1, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			NewXoshiro256(1).Geometric(p)
		}()
	}
}

// geometricFloat is Geometric as a loop of Bool(p) trials: the
// float form the integer threshold replaced.
func geometricFloat(x *Xoshiro256, p float64) int {
	n := 1
	for !x.Bool(p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// TestThresholdMatchesFloat64: comparing a draw's top 53 bits with
// Threshold(p) must give what Float64() < p gives, so Chance.Bool,
// Hit, Chance.Geometric and Geometric return what Bool(p) and its
// trial loop return and leave the generator in the same state.
func TestThresholdMatchesFloat64(t *testing.T) {
	ps := []float64{
		0x1p-60, 0x1p-53, 0x1p-52,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		1 - 0x1p-53, 1 - 0x1p-52,
		0, -0.5, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	src := NewXoshiro256(3)
	for i := 0; i < 32; i++ {
		ps = append(ps, src.Float64())
	}
	// A draw exactly at the threshold misses; one below it hits.
	for i := 0; i < 100; i++ {
		peek := *src
		k := peek.Uint64() >> 11
		if hit, _ := src.Hit(k); hit {
			t.Fatalf("draw %d hit threshold %d, equal to it", i, k)
		}
		if hit, _ := src.Hit(k + 1); !hit {
			t.Fatalf("draw %d missed threshold %d, above it", i, k+1)
		}
		src.Uint64()
	}
	for _, p := range ps {
		// At the boundary: integer draws k next to the threshold fall
		// on the side Float64 puts them.
		if th := Threshold(p); p > 0 && p < 1 {
			for k := th - 2; k <= th+1; k++ {
				if k >= 1<<53 {
					continue
				}
				if float64(k)/(1<<53) < p != (k < th) {
					t.Errorf("p=%v: draw %d: float and threshold disagree (threshold %d)", p, k, th)
				}
			}
		}

		c := NewChance(p)
		ref, got, below := NewXoshiro256(7), NewXoshiro256(7), NewXoshiro256(7)
		for i := 0; i < 5000; i++ {
			want := ref.Bool(p)
			if c.Bool(got) != want {
				t.Fatalf("p=%v draw %d: Chance.Bool disagrees with Bool", p, i)
			}
			if p > 0 && p < 1 {
				var hit bool
				if hit, *below = below.Hit(Threshold(p)); hit != want {
					t.Fatalf("p=%v draw %d: Hit disagrees with Bool", p, i)
				}
			}
		}
		if *got != *ref || (p > 0 && p < 1 && *below != *ref) {
			t.Fatalf("p=%v: generator state differs after Bool", p)
		}

		if !(p > 0 && p <= 1) && !math.IsNaN(p) {
			continue // Geometric panics; TestGeometricPanicsOnBadP
		}
		samples := 200
		if p < 0x1p-20 || math.IsNaN(p) {
			samples = 2 // every sample runs to the 1<<20 cap
		}
		ref, got, viaP := NewXoshiro256(9), NewXoshiro256(9), NewXoshiro256(9)
		for i := 0; i < samples; i++ {
			want := geometricFloat(ref, p)
			if g := c.Geometric(got); g != want {
				t.Fatalf("p=%v sample %d: Chance.Geometric %d, trial loop %d", p, i, g, want)
			}
			if g := viaP.Geometric(p); g != want {
				t.Fatalf("p=%v sample %d: Geometric %d, trial loop %d", p, i, g, want)
			}
		}
		if *got != *ref || *viaP != *ref {
			t.Fatalf("p=%v: generator state differs after Geometric", p)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	x := NewXoshiro256(23)
	f := func(sz uint8) bool {
		n := int(sz%64) + 1
		dst := make([]int, n)
		x.Perm(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMix64Dispersion(t *testing.T) {
	// Nearby inputs must produce outputs differing in roughly half of
	// the 64 bits on average (avalanche property).
	totalBits := 0
	const n = 1000
	for i := uint64(0); i < n; i++ {
		d := Mix64(i) ^ Mix64(i+1)
		for d != 0 {
			totalBits++
			d &= d - 1
		}
	}
	avg := float64(totalBits) / n
	if avg < 28 || avg > 36 {
		t.Errorf("Mix64 avalanche = %.2f bits, want ~32", avg)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Mix64(uint64(i))
	}
	_ = sink
}

package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes
// them, so spreads printed here match the ones computed from the same
// runs in Python. It needs at least two samples; with one, all three
// are that sample.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	ld := len(s)
	if ld == 0 {
		return out
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

package main

import (
	"fmt"
	"time"
)

// The reference host is shared: over minutes its speed drifts by a
// third or more, and the CPU time of a fixed piece of work drifts with
// it, so two sets of ten runs of one commit a quarter of an hour apart
// differed by up to 35% in a median timing. Best-of passes cannot
// remove a slow period longer than a run. So each run also times a
// fixed reference loop of the benchmark's own, which calls no
// repository code, before every set-up and every pass, and reports its
// timings scaled to the host speed at which the loop takes
// refNominalMS: a slower host inflates the loop and the workload alike,
// while a change to the repository moves the workload alone. The
// unscaled figures are printed on the comment line.

// refNominalMS is the reference loop's fastest time on the reference
// host in a quiet period, pinned at this commit. It only fixes the unit
// of the scaled timings and is never recomputed.
const refNominalMS = 20.0

// The reference loop is a 2-bit-counter table lookup and update,
// indexed by a hashed branch address and a global history, over a
// fixed pseudo-random branch stream: the same mix of dependent loads,
// data-dependent branches and streaming reads as the simulator's own
// kernels, at a table size between the caches.
const (
	refStreamLen = 1 << 19 // 4 MiB of branches, read in order
	refTableLen  = 1 << 20 // 1 MiB of counters
	refRepeats   = 8
)

var (
	refStream []uint64
	refTable  []uint8
	refSink   uint64
)

func refInit() {
	refStream = make([]uint64, refStreamLen)
	refTable = make([]uint8, refTableLen)
	x := uint64(88172645463325252)
	for i := range refStream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refStream[i] = x
	}
}

func refLoop() {
	var hist, miss uint64
	for rep := 0; rep < refRepeats; rep++ {
		for _, b := range refStream {
			taken := (b>>20)&7 != 0
			idx := ((b&0x3fff)*0x9e3779b1 ^ hist<<4) & (refTableLen - 1)
			c := refTable[idx]
			if (c >= 2) != taken {
				miss++
			}
			if taken {
				c = min(c+1, 3)
				hist = hist<<1 | 1
			} else {
				c = max(c, 1) - 1
				hist <<= 1
			}
			hist &= 0xffff
			refTable[idx] = c
		}
	}
	refSink += miss
}

// hostSpeed collects one run's reference loop times, in milliseconds.
type hostSpeed struct{ ms []float64 }

// sample times the reference loop once.
func (h *hostSpeed) sample() {
	if refStream == nil {
		refInit()
	}
	start := time.Now()
	refLoop()
	h.ms = append(h.ms, float64(time.Since(start).Nanoseconds())/1e6)
}

// factor is how much slower than nominal the host ran: the fastest
// reference time over refNominalMS, matching the best-of timings it
// scales.
func (h *hostSpeed) factor() float64 {
	return percentile(h.ms, 0) / refNominalMS
}

func (h *hostSpeed) String() string {
	return fmt.Sprintf("host factor %.3f (reference loop fastest %.2f ms, median %.2f ms, %d samples)",
		h.factor(), percentile(h.ms, 0), median(h.ms), len(h.ms))
}

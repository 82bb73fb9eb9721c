package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// meter reads the process-wide cost counters the end-to-end metrics are
// built from. Every reading is cumulative; a timed region is the
// difference of two readings.
type meter struct {
	cpu     time.Duration // user+sys, getrusage(RUSAGE_SELF)
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// readMeter stops the world briefly (ReadMemStats); call it only at the
// edges of a timed region, never inside one.
func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return meter{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// cost is what one timed region consumed, normalised per input tuple by
// the caller.
type cost struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

func (m meter) since(start meter) cost {
	return cost{
		cpu:     m.cpu - start.cpu,
		mallocs: m.mallocs - start.mallocs,
		bytes:   m.bytes - start.bytes,
		gcPause: m.gcPause - start.gcPause,
	}
}

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of an ascending slice by the
// nearest-rank rule (the smallest value with at least q of the samples
// at or below it); 0 for an empty slice.
func quantile[T uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// splitmix64 is the seeded input generator's mixing step: every
// generated payload is a pure function of (seed, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// medianSeconds is the median of ds, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// mismatch counts the owed tuples a sink got wrong, for oracles that
// compare a count and a digest: the count difference, or at least one
// when the counts agree and the contents do not.
func mismatch(want, got uint64, sameContent bool) uint64 {
	switch {
	case want != got:
		return absDiff(want, got)
	case !sameContent:
		return 1
	}
	return 0
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

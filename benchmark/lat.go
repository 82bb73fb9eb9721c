package main

import (
	"math"
	"sort"
	"time"
)

// latRecorder is the benchmark's own latency instrument. It keeps every
// sample exactly (as saturating uint32 nanoseconds, 4.29 s at most —
// a run with such a latency has already failed its backlog check),
// grouped into fixed windows by arrival time. Each percentile is
// computed per window and the reported value is the median over the
// windows, so one disturbed second cannot move the metric and no
// end-to-end number depends on metrics.Histogram's log2 buckets.
//
// record is called from the sink's executing thread only; the
// statistics are read after the run.
type latRecorder struct {
	origin time.Duration // arrival offset at which window 0 begins
	window time.Duration
	wins   [][]uint32
}

// newLatRecorder preallocates n windows of perWindow samples each, so
// that recording allocates nothing inside the timed region.
func newLatRecorder(origin, window time.Duration, n, perWindow int) *latRecorder {
	r := &latRecorder{origin: origin, window: window, wins: make([][]uint32, n)}
	for i := range r.wins {
		r.wins[i] = make([]uint32, 0, perWindow)
	}
	return r
}

// record files one sample that arrived at offset at. Samples outside
// the windows (warm-up, tail) are dropped.
func (r *latRecorder) record(at, lat time.Duration) {
	if at < r.origin {
		return
	}
	w := int((at - r.origin) / r.window)
	if w >= len(r.wins) {
		return
	}
	ns := uint32(math.MaxUint32)
	if lat < 0 {
		ns = 0
	} else if lat < time.Duration(math.MaxUint32) {
		ns = uint32(lat)
	}
	r.wins[w] = append(r.wins[w], ns)
}

// latStats is the median-over-windows summary of a recorder.
type latStats struct {
	p50, p95, p99 time.Duration
	samples       int
	windows       int // windows that held at least one sample
}

// stats sorts each window and applies the median-over-windows rule.
func (r *latRecorder) stats() latStats {
	var s latStats
	var p50s, p95s, p99s []float64
	for _, w := range r.wins {
		if len(w) == 0 {
			continue
		}
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		p50s = append(p50s, float64(quantile(w, 0.50)))
		p95s = append(p95s, float64(quantile(w, 0.95)))
		p99s = append(p99s, float64(quantile(w, 0.99)))
		s.samples += len(w)
		s.windows++
	}
	s.p50 = time.Duration(median(p50s))
	s.p95 = time.Duration(median(p95s))
	s.p99 = time.Duration(median(p99s))
	return s
}

// allSamples returns every sample of recs in one ascending slice (for the
// metrics.Histogram error measurement).
func allSamples(recs []*latRecorder) []uint32 {
	var out []uint32
	for _, r := range recs {
		for _, w := range r.wins {
			out = append(out, w...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// count returns the samples whose arrival fell in windows [from, to).
func (r *latRecorder) count(from, to int) int {
	n := 0
	for _, w := range r.wins[from:to] {
		n += len(w)
	}
	return n
}

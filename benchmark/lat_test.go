package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

// skewed is a deterministic heavy-tailed latency: mostly around 0.5 ms
// with a tail out to tens of milliseconds, like the ingest workloads.
func skewed(i int) time.Duration {
	u := float64(splitmix64(uint64(i))%1_000_000) / 1_000_000
	return time.Duration(400e3 * math.Exp(4*u*u*u))
}

func TestRecorderQuantileError(t *testing.T) {
	const perWindow = 100_000
	r := newLatRecorder(0, time.Second, 1, perWindow)
	exact := make([]float64, perWindow)
	for i := range exact {
		d := skewed(i)
		exact[i] = float64(d)
		r.record(time.Duration(i)*time.Second/perWindow, d)
	}
	sort.Float64s(exact)
	s := r.stats()
	if s.samples != perWindow || s.windows != 1 {
		t.Fatalf("stats counted %d samples in %d windows", s.samples, s.windows)
	}
	for _, c := range []struct {
		name string
		got  time.Duration
		q    float64
	}{{"p50", s.p50, .50}, {"p99", s.p99, .99}} {
		want := quantile(exact, c.q)
		if err := math.Abs(float64(c.got)-want) / want; err > 0.03 {
			t.Errorf("%s = %v, exact %v: relative error %.2f%% exceeds 3%%", c.name, c.got, time.Duration(want), err*100)
		}
	}
}

// TestRecorderMedianOverWindows disturbs one window out of five: the
// reported percentiles must be those of an undisturbed window, where
// pooling all samples would let the disturbed second set the p99.
func TestRecorderMedianOverWindows(t *testing.T) {
	const perWindow = 10_000
	r := newLatRecorder(2*time.Second, time.Second, 5, perWindow)
	calm := newLatRecorder(0, time.Second, 1, perWindow)
	var pooled []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < perWindow; i++ {
			d := skewed(i)
			if w == 3 {
				d *= 100
			}
			at := 2*time.Second + time.Duration(w)*time.Second + time.Duration(i)*time.Second/perWindow
			r.record(at, d)
			pooled = append(pooled, float64(d))
			if w == 0 {
				calm.record(at-2*time.Second, d)
			}
		}
	}
	r.record(time.Second, time.Hour)   // warm-up: before the first window
	r.record(8*time.Second, time.Hour) // tail: after the last window
	got, want := r.stats(), calm.stats()
	if got.samples != 5*perWindow || got.windows != 5 {
		t.Fatalf("recorder kept %d samples in %d windows, want %d in 5", got.samples, got.windows, 5*perWindow)
	}
	if got.p50 != want.p50 || got.p99 != want.p99 {
		t.Errorf("median over windows = (%v, %v), an undisturbed window has (%v, %v)", got.p50, got.p99, want.p50, want.p99)
	}
	sort.Float64s(pooled)
	if pool := time.Duration(quantile(pooled, .99)); pool < 10*got.p99 {
		t.Errorf("pooled p99 %v should be dominated by the disturbed window (median over windows gives %v)", pool, got.p99)
	}
}

func TestRecorderSaturates(t *testing.T) {
	r := newLatRecorder(0, time.Second, 1, 4)
	r.record(0, -time.Millisecond)
	r.record(0, time.Minute)
	if w := r.wins[0]; len(w) != 2 || w[0] != 0 || w[1] != math.MaxUint32 {
		t.Errorf("recorded %v, want [0 MaxUint32]", w)
	}
}

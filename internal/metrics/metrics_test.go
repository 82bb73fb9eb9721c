package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterSingleShard(t *testing.T) {
	c := NewCounter(0) // clamps to 1
	c.Add(0, 5)
	c.Add(17, 3) // wraps onto shard 0
	if got := c.Total(); got != 8 {
		t.Fatalf("Total = %d, want 8", got)
	}
}

func TestCounterSharding(t *testing.T) {
	c := NewCounter(4)
	for tid := 0; tid < 8; tid++ {
		c.Add(tid, uint64(tid))
	}
	want := uint64(0 + 1 + 2 + 3 + 4 + 5 + 6 + 7)
	if got := c.Total(); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
}

func TestCounterConcurrent(t *testing.T) {
	const threads = 8
	const per = 10000
	c := NewCounter(threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(tid, 1)
			}
		}(tid)
	}
	wg.Wait()
	if got := c.Total(); got != threads*per {
		t.Fatalf("Total = %d, want %d", got, threads*per)
	}
}

func TestCounterShardRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		c := NewCounter(tc.ask)
		if got := len(c.shards) / shardStride; got != tc.want {
			t.Errorf("NewCounter(%d): %d shards, want %d", tc.ask, got, tc.want)
		}
		if c.mask != uint64(tc.want-1) {
			t.Errorf("NewCounter(%d): mask %#x, want %#x", tc.ask, c.mask, tc.want-1)
		}
		// Wrapping stays total-preserving whatever the tid.
		for tid := 0; tid < 3*tc.want; tid++ {
			c.Add(tid, 2)
		}
		if got := c.Total(); got != uint64(6*tc.want) {
			t.Errorf("NewCounter(%d): Total = %d, want %d", tc.ask, got, 6*tc.want)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(3, 1)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", w.Mean())
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(w.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", w.StdDev(), want)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.StdDev() != 0 {
		t.Fatalf("single-sample Welford: mean=%g stddev=%g", w.Mean(), w.StdDev())
	}
}

// Property: Welford mean matches the naive mean for arbitrary inputs.
func TestWelfordMeanProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		var sum float64
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			w.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return w.Mean() == 0
		}
		naive := sum / float64(n)
		return math.Abs(w.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContentionSnapshot(t *testing.T) {
	c := New[Contention](4)
	c.PushFail.Add(0, 3)
	c.PushFail.Add(2, 1)
	c.PopFail.Add(1, 7)
	c.Steal.Add(3, 2)
	c.StealMiss.Add(0, 5)
	c.Spill.Add(2, 11)
	got := c.Snapshot()
	want := ContentionSnapshot{PushFail: 4, PopFail: 7, Steal: 2, StealMiss: 5, Spill: 11}
	if got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

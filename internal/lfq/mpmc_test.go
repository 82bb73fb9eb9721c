package lfq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMPMCCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -2, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMPMC(%d) did not panic", bad)
				}
			}()
			NewMPMC[int](bad)
		}()
	}
}

func TestMPMCSequentialFIFO(t *testing.T) {
	q := NewMPMC[int](8)
	var v int
	if q.Pop(&v) {
		t.Fatal("Pop on empty queue returned true")
	}
	for i := 0; i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if q.Push(100) {
		t.Fatal("Push on full queue returned true")
	}
	for i := 0; i < 8; i++ {
		if !q.Pop(&v) || v != i {
			t.Fatalf("Pop = (%d, ok), want %d", v, i)
		}
	}
	if q.Pop(&v) {
		t.Fatal("Pop after drain returned true")
	}
}

func TestMPMCWrapAroundProperty(t *testing.T) {
	// Single-threaded model check across wrap-around, like the SPSC one.
	model := func(script []byte) bool {
		q := NewMPMC[uint16](4)
		var ref []uint16
		var next uint16
		for _, op := range script {
			if op%2 == 0 {
				got := q.Push(next)
				want := len(ref) < 4
				if got != want {
					return false
				}
				if got {
					ref = append(ref, next)
				}
				next++
			} else {
				var v uint16
				got := q.Pop(&v)
				want := len(ref) > 0
				if got != want {
					return false
				}
				if got {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(model, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMPMCConcurrentNoLossNoDup hammers the queue from several producers
// and consumers and verifies that every pushed element is popped exactly
// once.
func TestMPMCConcurrentNoLossNoDup(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	q := NewMPMC[int](64)
	seen := make([]atomic.Int32, producers*perProd)
	var wg sync.WaitGroup
	var popped atomic.Int64

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v int
			for popped.Load() < producers*perProd {
				if q.Pop(&v) {
					seen[v].Add(1)
					popped.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				val := p*perProd + i
				for !q.Push(val) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("element %d popped %d times, want exactly 1", i, n)
		}
	}
}

// TestMPMCPerProducerOrder verifies that elements from a single producer
// are consumed in that producer's push order (FIFO per producer), using a
// single consumer.
func TestMPMCPerProducerOrder(t *testing.T) {
	const producers = 3
	const perProd = 3000
	q := NewMPMC[[2]int](128)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !q.Push([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	lastSeen := [producers]int{}
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	got := 0
	var v [2]int
	for got < producers*perProd {
		if !q.Pop(&v) {
			runtime.Gosched()
		} else {
			if v[1] <= lastSeen[v[0]] {
				t.Fatalf("producer %d: saw %d after %d", v[0], v[1], lastSeen[v[0]])
			}
			lastSeen[v[0]] = v[1]
			got++
		}
	}
	wg.Wait()
}

// TestMPMCRoundRobinWalk mimics the scheduler's free-list walk: pop an
// element, push it back, and verify the set of elements is preserved.
func TestMPMCRoundRobinWalk(t *testing.T) {
	q := NewMPMC[int](16)
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	present := map[int]bool{}
	var v int
	for i := 0; i < 100; i++ {
		if !q.Pop(&v) {
			t.Fatal("walk pop failed on non-empty list")
		}
		if present[v] {
			t.Fatalf("element %d seen while supposedly back on list", v)
		}
		for !q.Push(v) {
		}
	}
	// Drain and verify the full set survived.
	for i := 0; i < 10; i++ {
		if !q.Pop(&v) {
			t.Fatal("drain pop failed")
		}
		if present[v] {
			t.Fatalf("duplicate element %d", v)
		}
		present[v] = true
	}
	if q.Pop(&v) {
		t.Fatal("queue should be empty")
	}
	for i := 0; i < 10; i++ {
		if !present[i] {
			t.Fatalf("element %d lost during walk", i)
		}
	}
}

func BenchmarkMPMCPushPop(b *testing.B) {
	q := NewMPMC[int](1024)
	var v int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop(&v)
	}
}

func BenchmarkMPMCContended(b *testing.B) {
	q := NewMPMC[int](1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var v int
		i := 0
		for pb.Next() {
			if i%2 == 0 {
				q.Push(i)
			} else {
				q.Pop(&v)
			}
			i++
		}
	})
}

// TestMPMCPushExDistinguishesFull verifies PushEx reports PushFull on a
// queue at capacity and PushOK once space frees up. (The PushBusy state
// needs a consumer frozen mid-pop and so is only reachable
// concurrently; the concurrent tests above exercise that path through
// Push's retry semantics.)
func TestMPMCPushExDistinguishesFull(t *testing.T) {
	q := NewMPMC[int](4)
	for i := 0; i < 4; i++ {
		if got := q.PushEx(i); got != PushOK {
			t.Fatalf("PushEx(%d) = %v below capacity, want PushOK", i, got)
		}
	}
	if got := q.PushEx(99); got != PushFull {
		t.Fatalf("PushEx on full queue = %v, want PushFull", got)
	}
	var v int
	if !q.Pop(&v) || v != 0 {
		t.Fatalf("Pop = (%d), want 0", v)
	}
	if got := q.PushEx(99); got != PushOK {
		t.Fatalf("PushEx after Pop = %v, want PushOK", got)
	}
}

package lfq

import (
	"runtime"
	"sync"
	"testing"
)

// wide stands in for a runtime tuple: a 104-byte value, so an eagerly
// allocated 512-slot ring would cost 52 KiB.
type wide [13]uint64

// heapBytes reports the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSPSCLazyRingConstruction checks that building a queue allocates
// its header only: the ring waits for the first push.
func TestSPSCLazyRingConstruction(t *testing.T) {
	const n = 64
	var qs [n]*SPSC[wide]
	var es [n]*Enforcer[wide]
	if b := heapBytes(func() {
		for i := range qs {
			qs[i] = NewSPSC[wide](512)
		}
	}) / n; b >= 1024 {
		t.Errorf("NewSPSC(512) allocates %d bytes, want < 1 KiB", b)
	}
	if b := heapBytes(func() {
		for i := range es {
			es[i] = NewEnforcer[wide](512)
		}
	}) / n; b >= 1024 {
		t.Errorf("NewEnforcer(512) allocates %d bytes, want < 1 KiB", b)
	}
	runtime.KeepAlive(qs)
	runtime.KeepAlive(es)
}

// TestSPSCNeverPushed exercises every consumer-side method on a queue
// whose ring was never allocated.
func TestSPSCNeverPushed(t *testing.T) {
	q := NewSPSC[wide](512)
	if q.Cap() != 512 {
		t.Fatalf("Cap() = %d, want 512", q.Cap())
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	var v wide
	if q.Pop(&v) {
		t.Fatal("Pop on a never-pushed queue returned true")
	}
	if n := q.PopN(make([]wide, 8)); n != 0 {
		t.Fatalf("PopN on a never-pushed queue moved %d", n)
	}
	if q.buf != nil {
		t.Fatal("a consumer call allocated the ring")
	}
	if n, ok := NewEnforcer[wide](4).ConsumeN(make([]wide, 4)); n != 0 || !ok {
		t.Fatalf("ConsumeN on a never-pushed queue = %d, %v; want 0, true", n, ok)
	}
}

// TestSPSCFirstPushAllocatesOnce checks that the first Push and the
// first PushN each allocate the ring and nothing else, and that later
// pushes allocate nothing.
func TestSPSCFirstPushAllocatesOnce(t *testing.T) {
	const runs = 100
	batch := make([]wide, 8)
	// AllocsPerRun makes one warm-up call before its runs: one fresh
	// queue per call.
	fresh := func() []*SPSC[wide] {
		qs := make([]*SPSC[wide], runs+1)
		for i := range qs {
			qs[i] = NewSPSC[wide](512)
		}
		return qs
	}
	qs, i := fresh(), 0
	if a := testing.AllocsPerRun(runs, func() { qs[i].Push(wide{1}); i++ }); a != 1 {
		t.Errorf("first Push: %v allocations, want 1", a)
	}
	qs, i = fresh(), 0
	if a := testing.AllocsPerRun(runs, func() { qs[i].PushN(batch); i++ }); a != 1 {
		t.Errorf("first PushN: %v allocations, want 1", a)
	}
	q := qs[0]
	var v wide
	if a := testing.AllocsPerRun(runs, func() {
		q.Push(wide{2})
		q.PushN(batch)
		q.PopN(batch)
		q.Pop(&v)
	}); a != 0 {
		t.Errorf("later pushes: %v allocations, want 0", a)
	}
	e := NewEnforcer[wide](512)
	e.PushN(batch)
	if a := testing.AllocsPerRun(runs, func() {
		e.Push(wide{3})
		e.PushN(batch)
		e.ConsumeN(batch)
		e.ConsumeN(batch)
	}); a != 0 {
		t.Errorf("Enforcer pushes after the first: %v allocations, want 0", a)
	}
}

// TestSPSCLazyRingConcurrent runs a producer and a consumer on separate
// goroutines from before the first push, on many fresh queues, so the
// ring's publication races the consumer's first look each time. Under
// -race it checks that the consumer reads the ring only after the tail
// store that publishes it.
func TestSPSCLazyRingConcurrent(t *testing.T) {
	const (
		queues = 200
		per    = 40
	)
	for r := 0; r < queues; r++ {
		q := NewSPSC[wide](4)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; {
				if r%2 == 0 {
					if q.Push(wide{uint64(i)}) {
						i++
					}
				} else {
					i += q.PushN([]wide{{uint64(i)}, {uint64(i + 1)}})
				}
				runtime.Gosched()
			}
		}()
		disorder := -1
		go func() {
			defer wg.Done()
			buf := make([]wide, 3)
			for next := 0; next < per; {
				var got []wide
				var v wide
				if next%2 == 0 && q.Pop(&v) {
					got = []wide{v}
				} else {
					got = buf[:q.PopN(buf)]
				}
				for _, w := range got {
					if w[0] != uint64(next) && disorder < 0 {
						disorder = next
					}
					next++
				}
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if disorder >= 0 {
			t.Fatalf("queue %d: element %d out of order", r, disorder)
		}
	}
}

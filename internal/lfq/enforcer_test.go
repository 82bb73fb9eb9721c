package lfq

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestEnforcerTryLocks(t *testing.T) {
	e := NewEnforcer[int](8)
	if !e.ProdTryLock() {
		t.Fatal("first ProdTryLock failed")
	}
	if e.ProdTryLock() {
		t.Fatal("second ProdTryLock succeeded while held")
	}
	// Consumer lock is independent of the producer lock.
	if !e.ConsTryLock() {
		t.Fatal("ConsTryLock failed while prod lock held")
	}
	if e.ConsTryLock() {
		t.Fatal("second ConsTryLock succeeded while held")
	}
	e.ProdUnlock()
	if !e.ProdTryLock() {
		t.Fatal("ProdTryLock failed after unlock")
	}
	e.ProdUnlock()
	e.ConsUnlock()
	if !e.ConsTryLock() {
		t.Fatal("ConsTryLock failed after unlock")
	}
	e.ConsUnlock()
}

// TestEnforcerPushReleasesLock guards against the paper's Figure 3
// presentation bug: push() as printed returns true without releasing
// prodLocked, which would wedge the port after one successful push. Our
// implementation releases the lock on both paths.
func TestEnforcerPushReleasesLock(t *testing.T) {
	e := NewEnforcer[int](8)
	if !e.Push(1) {
		t.Fatal("first Push failed")
	}
	if !e.Push(2) {
		t.Fatal("second Push failed; producer lock was not released")
	}
}

func TestEnforcerPushFullQueue(t *testing.T) {
	e := NewEnforcer[int](2)
	if !e.Push(1) || !e.Push(2) {
		t.Fatal("fills failed")
	}
	if e.Push(3) {
		t.Fatal("Push succeeded on full queue")
	}
	// Lock must have been released even though the queue push failed.
	if !e.ProdTryLock() {
		t.Fatal("producer lock leaked after failed push")
	}
	e.ProdUnlock()
}

func TestEnforcerPushContended(t *testing.T) {
	e := NewEnforcer[int](8)
	if !e.ProdTryLock() {
		t.Fatal("setup lock failed")
	}
	if e.Push(1) {
		t.Fatal("Push succeeded while another producer holds the lock")
	}
	e.ProdUnlock()
	if !e.Push(1) {
		t.Fatal("Push failed after contention cleared")
	}
}

// TestEnforcerConcurrentProducers checks that many pushing goroutines and
// one consuming goroutine preserve per-queue FIFO of successfully pushed
// elements and lose nothing.
func TestEnforcerConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProd = 2000
	e := NewEnforcer[int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !e.Push(p*perProd + i) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	counts := make(map[int]int)
	got := 0
	for got < producers*perProd {
		if e.ConsTryLock() {
			var v int
			for e.Queue().Pop(&v) {
				counts[v]++
				got++
			}
			e.ConsUnlock()
		}
		runtime.Gosched()
	}
	wg.Wait()
	for p := 0; p < producers; p++ {
		for i := 0; i < perProd; i++ {
			if counts[p*perProd+i] != 1 {
				t.Fatalf("value %d consumed %d times", p*perProd+i, counts[p*perProd+i])
			}
		}
	}
}

func BenchmarkEnforcerPush(b *testing.B) {
	e := NewEnforcer[int](1024)
	var v int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Push(i)
		if e.ConsTryLock() {
			e.Queue().Pop(&v)
			e.ConsUnlock()
		}
	}
}

// TestEnforcerLayout pins the shape of the struct every queue hop
// touches: the producer and consumer try-lock words sit at least two
// cache lines apart, and the struct holds the queue pointer, the two
// lock words and their pads and nothing else (272 bytes on a 64-bit
// host) — per-port state belongs elsewhere.
func TestEnforcerLayout(t *testing.T) {
	var e Enforcer[int]
	if d := unsafe.Offsetof(e.consLocked) - unsafe.Offsetof(e.prodLocked); d < 128 {
		t.Fatalf("prodLocked and consLocked are %d bytes apart, want >= 128", d)
	}
	want := unsafe.Sizeof(e.queue) + 2*(unsafe.Sizeof(e.prodLocked)+unsafe.Sizeof(cacheLinePad{}))
	if n := unsafe.Sizeof(e); n != want {
		t.Fatalf("Enforcer is %d bytes, want %d (queue pointer, two lock words, two pads)", n, want)
	}
}

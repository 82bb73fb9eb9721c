package lfq

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSPSCCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSPSC(%d) did not panic", bad)
				}
			}()
			NewSPSC[int](bad)
		}()
	}
	for _, good := range []int{1, 2, 4, 64, 1024} {
		q := NewSPSC[int](good)
		if q.Cap() != good {
			t.Errorf("Cap() = %d, want %d", q.Cap(), good)
		}
	}
}

// TestSPSCLayout pins the queue header: the consumer's words, the
// producer's words and the ring header sit at least 128 bytes apart, and
// the header is three pads, the four index words, the mask and the ring
// slice (448 bytes on a 64-bit host), so an Enforcer and its queue
// together allocate under 1 KiB.
func TestSPSCLayout(t *testing.T) {
	var q SPSC[int]
	if d := unsafe.Offsetof(q.tail) - unsafe.Offsetof(q.tailSnap); d < 128 {
		t.Fatalf("consumer and producer words are %d bytes apart, want >= 128", d)
	}
	if d := unsafe.Offsetof(q.mask) - unsafe.Offsetof(q.headSnap); d < 128 {
		t.Fatalf("producer words and ring header are %d bytes apart, want >= 128", d)
	}
	want := 3*unsafe.Sizeof(cacheLinePad{}) + 5*unsafe.Sizeof(q.mask) + unsafe.Sizeof(q.buf)
	if n := unsafe.Sizeof(q); n != want {
		t.Fatalf("SPSC is %d bytes, want %d", n, want)
	}
}

func TestSPSCEmptyPop(t *testing.T) {
	q := NewSPSC[int](8)
	var v int
	if q.Pop(&v) {
		t.Fatal("Pop on empty queue returned true")
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
}

func TestSPSCFullPush(t *testing.T) {
	q := NewSPSC[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("Push %d failed on non-full queue", i)
		}
	}
	if q.Push(99) {
		t.Fatal("Push on full queue returned true")
	}
	if q.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", q.Len())
	}
}

func TestSPSCFIFOOrder(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	for i := 0; i < 8; i++ {
		var v int
		if !q.Pop(&v) {
			t.Fatalf("Pop %d failed", i)
		}
		if v != i {
			t.Fatalf("Pop returned %d, want %d", v, i)
		}
	}
	var v int
	if q.Pop(&v) {
		t.Fatal("Pop after drain returned true")
	}
}

func TestSPSCWrapAround(t *testing.T) {
	q := NewSPSC[int](4)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*3 + i) {
				t.Fatalf("round %d: push failed", round)
			}
		}
		for i := 0; i < 3; i++ {
			var v int
			if !q.Pop(&v) {
				t.Fatalf("round %d: pop failed", round)
			}
			if v != next {
				t.Fatalf("round %d: got %d, want %d", round, v, next)
			}
			next++
		}
	}
}

// TestSPSCInterleavedProperty checks, for arbitrary interleavings of
// pushes and pops driven by a random script, that the queue behaves like
// a bounded FIFO model.
func TestSPSCInterleavedProperty(t *testing.T) {
	model := func(script []byte) bool {
		q := NewSPSC[int](16)
		var ref []int
		next := 0
		for _, op := range script {
			if op%2 == 0 {
				got := q.Push(next)
				want := len(ref) < 16
				if got != want {
					return false
				}
				if got {
					ref = append(ref, next)
				}
				next++
			} else {
				var v int
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
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(model, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSPSCConcurrent streams many elements from one producer goroutine
// to one consumer goroutine and checks order and completeness. Run under
// -race this validates the acquire/release pairing. Spin loops yield so
// the test completes quickly even on a single-core host.
func TestSPSCConcurrent(t *testing.T) {
	const n = 1 << 17
	q := NewSPSC[int](256)
	done := make(chan error, 1)
	go func() {
		next := 0
		var v int
		for next < n {
			if q.Pop(&v) {
				if v != next {
					done <- errOutOfOrder(v, next)
					return
				}
				next++
			} else {
				runtime.Gosched()
			}
		}
		done <- nil
	}()
	for i := 0; i < n; {
		if q.Push(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type orderErr struct{ got, want int }

func errOutOfOrder(got, want int) error { return orderErr{got, want} }
func (e orderErr) Error() string        { return "out of order" }

// TestSPSCOwnershipHandoff checks that the queue stays correct when the
// producer and consumer roles migrate between goroutines with proper
// synchronization — the pattern the scheduler creates via Enforcer locks.
func TestSPSCOwnershipHandoff(t *testing.T) {
	q := NewSPSC[int](64)
	var mu sync.Mutex // stands in for the enforcer's lock handoff
	next := 0
	popped := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				mu.Lock()
				if q.Push(next) {
					next++
				}
				var v int
				if q.Pop(&v) {
					popped++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if q.Len() != next-popped {
		t.Fatalf("Len() = %d, want %d", q.Len(), next-popped)
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC[int](1024)
	var v int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop(&v)
	}
}

func BenchmarkSPSCStream(b *testing.B) {
	q := NewSPSC[int](1024)
	done := make(chan struct{})
	go func() {
		var v int
		got := 0
		for got < b.N {
			if q.Pop(&v) {
				got++
			} else {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; {
		if q.Push(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
}

package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// TestReschedSuspensionReleasesLock is the regression test for the
// drain-while-suspended bug: reSchedule's loop used to re-acquire the
// blocked port's consumer lock and keep draining batches even after the
// elastic controller asked the thread to park. The restructured loop
// checks the suspension flag before taking the lock and before every
// batch while holding it, so a suspension request stops the draining
// promptly (the push keeps retrying — the stuck tuple must land) and
// leaves the port drainable by the threads that remain running.
//
// The test drives reSchedule directly for determinism: the destination
// queue is pre-filled, the producer lock is held by the test so the
// stuck push can never land on its own, and the destination operator
// flips the thread's suspension flag mid-drain.
func TestReschedSuspensionReleasesLock(t *testing.T) {
	const qcap = 4
	var executed atomic.Int64
	var thr *Thread
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: 1}, 0, 1)
	sn := b.AddNode(&ops.Custom{OpName: "Marker", Fn: func(_ graph.Submitter, _ tuple.Tuple, _ int) {
		if executed.Add(1) == 2 {
			// The controller's suspension request lands mid-drain, after
			// the second tuple of the first locked batch.
			thr.suspended.Store(true)
		}
	}}, 1, 0)
	b.Connect(src, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 4 makes the reSchedule limit qcap/4 = 1, bounding each
	// lock hold to two tuples, so the suspension set on tuple 2 is
	// observed at the first batch boundary.
	s := New(g, Config{QueueCap: qcap, MaxThreads: 1})
	thr = s.threads[0]
	port := int32(g.Ports[0].ID)
	q := s.queues[port]
	for i := 0; i < qcap; i++ {
		tp := tuple.NewData(uint64(i))
		tp.Port = port
		if !q.Push(tp) {
			t.Fatalf("failed to pre-fill queue at %d", i)
		}
	}
	if !q.ProdTryLock() {
		t.Fatal("could not take the producer lock")
	}
	// The scheduler thread's goroutine is never started; the test plays
	// the thread by calling reSchedule on its behalf.
	c := s.acquireCtx(g.Ports[0], 0, thr)
	stuck := tuple.NewData(99)
	stuck.Port = port
	done := make(chan struct{})
	go func() {
		s.reSchedule(q, stuck, c)
		close(done)
	}()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The first lock hold drains exactly two tuples and trips the
	// suspension flag.
	waitFor("first drain batch", func() bool { return executed.Load() >= 2 })
	// Suspended: the thread must stop draining — the queue length holds
	// steady — and must not be holding the consumer lock.
	time.Sleep(50 * time.Millisecond)
	if got := executed.Load(); got != 2 {
		t.Fatalf("drained %d tuples while suspended, want 2 (kept draining after the park request)", got)
	}
	if got := q.Queue().Len(); got != qcap-2 {
		t.Fatalf("queue length %d while suspended, want %d", got, qcap-2)
	}
	if !q.ConsTryLock() {
		t.Fatal("consumer lock still held by the suspended thread's reSchedule")
	}
	q.ConsUnlock()
	// Resume: the drain continues and empties the queue, but the push
	// still cannot land while the test holds the producer lock.
	thr.suspended.Store(false)
	waitFor("post-resume drain", func() bool { return executed.Load() == qcap })
	select {
	case <-done:
		t.Fatal("reSchedule returned before its push could land")
	default:
	}
	// Release the producer side: the stuck tuple lands and reSchedule
	// returns.
	q.ProdUnlock()
	waitFor("reSchedule return", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	var got tuple.Tuple
	if !q.Queue().Pop(&got) || got.Words[0] != 99 {
		t.Fatalf("stuck tuple not delivered; popped %+v", got)
	}
	s.releaseCtx(c)
}

package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// TestReschedSuspensionReleasesLock pins what a suspension request
// means to a thread nested in reSchedule: nothing until the stuck push
// lands. The thread holds the consumer lock of the batch it is
// executing, so it stays a drainer — it keeps draining the blocking
// queue whatever its suspension flag says — and once the push lands it
// returns holding no lock that reSchedule took, free to park at its
// next top-level find.
//
// The test drives reSchedule directly for determinism: the destination
// queue is pre-filled, the producer lock is held by the test so the
// stuck push can never land on its own, and the destination operator
// sets the thread's suspension flag mid-drain.
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
	// lock hold to two tuples, so the suspension set on tuple 2 is seen
	// by every later lock hold.
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

	// Suspended after tuple 2, the thread still drains the whole queue:
	// its push has not landed.
	waitFor(t, "the drain of the full queue", func() bool { return executed.Load() == qcap })
	if !thr.suspended.Load() {
		t.Fatal("the suspension request never landed")
	}
	select {
	case <-done:
		t.Fatal("reSchedule returned before its push could land")
	default:
	}
	// Release the producer side: the stuck tuple lands and reSchedule
	// returns, with the consumer lock free.
	q.ProdUnlock()
	waitFor(t, "reSchedule return", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	if !q.ConsTryLock() {
		t.Fatal("consumer lock still held after reSchedule returned")
	}
	q.ConsUnlock()
	var got tuple.Tuple
	if !q.Queue().Pop(&got) || got.Words[0] != 99 {
		t.Fatalf("stuck tuple not delivered; popped %+v", got)
	}
	if executed.Load() != qcap {
		t.Fatalf("executed %d tuples, want %d", executed.Load(), qcap)
	}
	s.releaseCtx(c)
}

// TestReschedSuspendedLockHolderDrains is the elastic stall, driven
// deterministically. On src -> W -> A -> Snk, with QueueCap 2 and
// MaxThreads at MinLevel (2), thread 0 executes A — it holds A's
// consumer lock — and is asked to suspend while its push into the full
// Snk queue is stuck; thread 1, the one left running, executes W and is
// stuck pushing into the full A queue, whose lock thread 0 holds. Only
// thread 0 can drain Snk. A suspended thread that stopped draining while
// it held a lock left both threads spinning in reSchedule until the
// PE's shutdown deadline.
func TestReschedSuspendedLockHolderDrains(t *testing.T) {
	const qcap = 2
	snk := &ops.Sink{}
	g := pipelineGraph(t, 2, 0, snk)
	s := New(g, Config{QueueCap: qcap, MaxThreads: 2})
	if s.MinLevel() != 2 {
		t.Fatalf("MinLevel %d, want 2", s.MinLevel())
	}
	// Ports in pipeline order: W's input, A's input, the sink's input.
	pw, pa, ps := g.Ports[0], g.Ports[1], g.Ports[2]
	if pw.Node.Op.Name() != "Worker" || pa.Node.Op.Name() != "Worker" || ps.Node.Op != graph.Operator(snk) {
		t.Fatalf("unexpected port order %v %v %v", pw.Node.Op.Name(), pa.Node.Op.Name(), ps.Node.Op.Name())
	}
	qa, qs := s.queues[pa.ID], s.queues[ps.ID]
	fill := func(q interface{ Push(tuple.Tuple) bool }, port int) {
		for i := 0; i < qcap; i++ {
			tp := tuple.NewData(uint64(i))
			tp.Port = int32(port)
			if !q.Push(tp) {
				t.Fatalf("failed to pre-fill port %d at %d", port, i)
			}
		}
	}
	fill(qa, pa.ID)
	fill(qs, ps.ID)
	// Thread 1 holds W's consumer lock and thread 0 holds A's: each is
	// executing a batch of its port when its push blocks. Neither
	// goroutine is started; the test plays both threads.
	if !s.queues[pw.ID].ConsTryLock() || !qa.ConsTryLock() {
		t.Fatal("could not take the consumer locks")
	}
	t0, t1 := s.threads[0], s.threads[1]
	t0.suspended.Store(true)
	c0 := s.acquireCtx(pa, 0, t0)
	c1 := s.acquireCtx(pw, 1, t1)
	stuck0, stuck1 := tuple.NewData(100), tuple.NewData(101)
	stuck0.Port, stuck1.Port = int32(ps.ID), int32(pa.ID)
	done0, done1 := make(chan struct{}), make(chan struct{})
	go func() {
		s.reSchedule(qs, stuck0, c0)
		// The rest of thread 0's batch: release A's lock, as schedule()
		// does before it parks.
		qa.ConsUnlock()
		close(done0)
	}()
	go func() {
		s.reSchedule(qa, stuck1, c1)
		s.queues[pw.ID].ConsUnlock()
		close(done1)
	}()
	deadline := time.After(5 * time.Second)
	for _, d := range []chan struct{}{done0, done1} {
		select {
		case <-d:
		case <-deadline:
			// Stop both spinning frames before failing.
			t0.shutdown.Store(true)
			t1.shutdown.Store(true)
			<-done0
			<-done1
			t.Fatal("stalled: the suspended thread stopped draining while it held A's consumer lock")
		}
	}
	for _, p := range g.Ports {
		if !s.queues[p.ID].ConsTryLock() {
			t.Fatalf("port %d consumer lock still held after both pushes landed", p.ID)
		}
		s.queues[p.ID].ConsUnlock()
	}
	// Every tuple is delivered or still queued: qcap+1 entered each of
	// A's and the sink's queues, and each A tuple becomes one sink tuple.
	if got, want := int(snk.Count())+qa.Queue().Len()+qs.Queue().Len(), 2*(qcap+1); got != want {
		t.Fatalf("%d tuples delivered or queued, want %d", got, want)
	}
	s.releaseCtx(c0)
	s.releaseCtx(c1)
}

// waitFor polls cond every millisecond for up to ten seconds.
func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

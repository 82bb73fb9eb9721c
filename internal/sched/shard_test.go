package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// wideSplitGraph is a source of limit tuples split round-robin over
// 1000 workers that merge into snk: 1002 input ports.
func wideSplitGraph(t *testing.T, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	const width = 1000
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	split := b.AddNode(&ops.RoundRobinSplit{Width: width}, 1, width)
	b.Connect(src, 0, split, 0)
	sn := b.AddNode(snk, 1, 0)
	for w := 0; w < width; w++ {
		wk := b.AddNode(&ops.Worker{}, 1, 1)
		b.Connect(split, w, wk, 0)
		b.Connect(wk, 0, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewAllocatesNoRings checks that New leaves every queue's ring to
// its first push: on the 1002-port graph, with the default 512-deep
// queues that would cost about 53 MB built eagerly, New allocates under
// 2 MiB.
func TestNewAllocatesNoRings(t *testing.T) {
	g := wideSplitGraph(t, 0, &ops.Sink{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(g, Config{MaxThreads: 6})
	runtime.ReadMemStats(&after)
	if s.cfg.QueueCap != DefaultQueueCap {
		t.Fatalf("QueueCap %d, want the default %d", s.cfg.QueueCap, DefaultQueueCap)
	}
	b := after.TotalAlloc - before.TotalAlloc
	if b >= 2<<20 {
		t.Fatalf("New allocated %d bytes on %d ports, want < 2 MiB", b, len(g.Ports))
	}
	t.Logf("New allocated %d bytes on %d ports", b, len(g.Ports))
	runtime.KeepAlive(s)
}

// TestShardedResizeNoStrandedPorts churns the thread level across its
// whole range while a data-parallel graph wider than the shard capacity
// runs, so shards spill, and asserts that every tuple is delivered:
// a port hint stranded in a suspended thread's shard would stall the
// drain and fail the runGraph timeout, and a lost or duplicated hint
// shows up as a wrong sink count. Run under -race this doubles as the
// concurrency check on the drain-vs-steal protocol.
func TestShardedResizeNoStrandedPorts(t *testing.T) {
	const n = 100000
	snk := &ops.Sink{}
	g := wideSplitGraph(t, n, snk)

	// 1002 ports are more than the 256-hint shards of any three running
	// threads can hold, so the spill path can run; MaxThreads 6 gives the
	// resize walk room.
	s := New(g, Config{MaxThreads: 6, QueueCap: 16})
	c := s.shards[0].Cap()
	if c >= len(g.Ports) {
		t.Fatalf("shard capacity %d holds all %d ports; the spill path is unreachable", c, len(g.Ports))
	}
	// Whether a running thread ever holds more hints than its shard
	// takes depends on timing (under -race it often does not), so spill
	// once for certain before any thread starts: move c+spill hints from
	// the global list into thread 0's release path, which keeps c and
	// spills the rest back. Every hint stays in the free structure
	// exactly once.
	const spill = 10
	for i := 0; i < c+spill; i++ {
		var port int32
		if !s.freePorts.Pop(&port) {
			t.Fatalf("global list ran dry after %d of %d hints", i, c+spill)
		}
		s.makePortFree(port, s.threads[0])
	}
	if err := checkHintConservation(s, true); err != nil {
		t.Fatalf("after the forced spill: %v", err)
	}
	if got := s.Stats().Contention.Spill; got != spill {
		t.Fatalf("moving %d hints into a %d-hint shard spilled %d, want %d", c+spill, c, got, spill)
	}
	s.Start(2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, node := range g.SourceNodes {
		wg.Add(1)
		go func(i int, node *graph.Node) {
			defer wg.Done()
			node.Op.(graph.Source).Run(s.SourceSubmitter(node, i), stop)
			s.SourceDone(node, i)
		}(i, node)
	}

	// Churn the level for the whole run: every resize suspends threads
	// whose shards may hold hints, so each one exercises the
	// drain-on-park protocol.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-s.Done():
				return
			default:
			}
			s.SetLevel(1 + rng.Intn(s.MaxLevel()))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	donech := make(chan struct{})
	go func() { s.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(60 * time.Second):
		t.Fatal("scheduler did not drain within 60s: port hint stranded by a resize")
	}
	<-churnDone
	close(stop)
	wg.Wait()

	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
	// src out + width split outs + width worker outs into the sink = the
	// executions per generated tuple: split + worker + sink each run once
	// per tuple.
	if got, want := s.Executed(), uint64(n*3); got != want {
		t.Fatalf("Executed = %d, want %d", got, want)
	}
	if err := checkHintConservation(s, false); err != nil {
		t.Fatalf("after the drain: %v", err)
	}
	cont := s.Stats().Contention
	if cont.Spill == 0 {
		t.Errorf("%d ports over %d-hint shards produced no spills; spill path untested", len(g.Ports), c)
	}
	t.Logf("contention after churn: %+v", cont)
}

// checkHintConservation checks the free structures at a quiescent
// point, with no scheduler thread running: no port hint appears more
// than once across the global list and the shards, and, when every is
// set, each port appears exactly once — the state while every port is
// open and no thread holds one. It reads each structure by emptying it
// and pushing the hints back in their original order.
func checkHintConservation(s *Scheduler, every bool) error {
	count := make([]int, len(s.queues))
	var hints []int32
	for port := int32(0); s.freePorts.Pop(&port); {
		hints = append(hints, port)
	}
	for _, p := range hints {
		if !s.freePorts.Push(p) {
			return fmt.Errorf("global free list refused hint %d on refill", p)
		}
		count[p]++
	}
	for i, d := range s.shards {
		hints = hints[:0]
		for port := int32(0); d.Steal(&port); {
			hints = append(hints, port)
		}
		for _, p := range hints {
			if !d.PushBottom(p) {
				return fmt.Errorf("shard %d refused hint %d on refill", i, p)
			}
			count[p]++
		}
	}
	for p, n := range count {
		switch {
		case n > 1:
			return fmt.Errorf("port %d appears %d times across the free structures", p, n)
		case every && n == 0:
			return fmt.Errorf("port %d is on no free structure", p)
		}
	}
	return nil
}

// TestShardedDrainOnShutdown checks the schedule-exit drain directly:
// after a run completes, no shard retains a hint for an open port (all
// ports are closed by then, but the drain must also have run — a shard
// retaining anything would mean the defer was skipped).
func TestShardedDrainOnShutdown(t *testing.T) {
	const n = 5000
	snk := &ops.Sink{}
	g := pipelineGraph(t, 8, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4}, 3)
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
	for i, d := range s.shards {
		if l := d.Len(); l != 0 {
			t.Errorf("shard %d still holds %d hints after shutdown", i, l)
		}
	}
}

// TestGlobalFreeListAblationMatches runs the same graph under the
// sharded default and the GlobalFreeList ablation and checks both
// deliver identical results, so the ablation benchmarks compare equal
// work.
func TestGlobalFreeListAblationMatches(t *testing.T) {
	const n = 10000
	for _, cfg := range []Config{
		{MaxThreads: 4, QueueCap: 16},
		{MaxThreads: 4, QueueCap: 16, GlobalFreeList: true},
	} {
		snk := &ops.Sink{}
		g := pipelineGraph(t, 10, n, snk)
		s := runGraph(t, g, cfg, 3)
		if got := snk.Count(); got != n {
			t.Fatalf("GlobalFreeList=%v: sink saw %d tuples, want %d", cfg.GlobalFreeList, got, n)
		}
		if got, want := s.Executed(), uint64(n*11); got != want {
			t.Fatalf("GlobalFreeList=%v: Executed = %d, want %d", cfg.GlobalFreeList, got, want)
		}
	}
}

// TestStealSweepsEveryVictimOnce pins the steal order: one steal call
// probes every non-self shard exactly once, starting at a thread-local
// random victim and wrapping. Each victim shard holds one hint for an
// empty queue, so every probe steals it, finds nothing to run and
// recirculates it into the thief's own shard, which then spells the
// probe order. Every start offset is reached for every thief, and a
// lone thread (no victims) returns without touching its RNG.
func TestStealSweepsEveryVictimOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		// depth 7: eight input ports, one distinct hint per victim.
		s := New(pipelineGraph(t, 7, 1, &ops.Sink{}), Config{MaxThreads: n})
		var tup tuple.Tuple
		if n == 1 {
			thr := s.threads[0]
			if before := thr.rng; s.steal(&tup, thr) || thr.rng != before {
				t.Fatal("n=1: steal found work or advanced the RNG with no victim to pick")
			}
			continue
		}
		for _, thr := range s.threads {
			starts := make(map[int]bool)
			for call := 0; len(starts) < n && call < 1000; call++ {
				for v, d := range s.shards {
					if v != thr.id && !d.PushBottom(int32(v)) {
						t.Fatalf("n=%d: shard %d refused a hint", n, v)
					}
				}
				off := int((&Thread{rng: thr.rng}).nextRand() % uint32(n))
				starts[off] = true
				if s.steal(&tup, thr) {
					t.Fatalf("n=%d thief %d: steal found work in empty queues", n, thr.id)
				}
				var want, got []int32
				for i := 0; i < n; i++ {
					if v := (off + i) % n; v != thr.id {
						want = append(want, int32(v))
					}
				}
				for p := int32(0); thr.shard.PopBottom(&p); {
					got = append([]int32{p}, got...) // LIFO: last stolen pops first
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d thief %d start %d: probed %v, want %v", n, thr.id, off, got, want)
				}
			}
			if len(starts) < n {
				t.Fatalf("n=%d thief %d: only start offsets %v reached in 1000 sweeps", n, thr.id, starts)
			}
		}
		if c := s.contention.Snapshot(); c.Steal != c.StealMiss*uint64(n-1) {
			t.Fatalf("n=%d: %d steals over %d fruitless sweeps, want %d per sweep", n, c.Steal, c.StealMiss, n-1)
		}
	}
}

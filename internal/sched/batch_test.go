package sched

import (
	"sync"
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// TestScratchCapacityBounded is the regression test for the shard walk's
// scratch buffer: a walk over a large, idle port set must not leave a
// backing array proportional to the port count aliased into the thread,
// and must restore every hint it inspected.
func TestScratchCapacityBounded(t *testing.T) {
	const width = 3 * maxScratchCap
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: 1}, 0, 1)
	for i := 0; i < width; i++ {
		sn := b.AddNode(&ops.Sink{}, 1, 0)
		b.Connect(src, 0, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxThreads: 1})
	defer s.Shutdown()
	thr := s.threads[0]
	// Move the whole port population into the thread's shard. All queues
	// are empty, so the walk inspects every hint and grows scratch to the
	// full port count before restoring the shard.
	var port int32
	for s.freePorts.Pop(&port) {
		if !thr.shard.PushBottom(port) {
			t.Fatalf("shard refused hint %d", port)
		}
	}
	for walk := 1; walk <= 2; walk++ {
		var tp tuple.Tuple
		if s.popLocal(&tp, thr) {
			t.Fatalf("walk %d found work on an idle graph", walk)
		}
		if got := cap(thr.scratch); got > maxScratchCap {
			t.Fatalf("walk %d: scratch capacity %d retained, want <= %d", walk, got, maxScratchCap)
		}
		if len(thr.scratch) != 0 {
			t.Fatalf("walk %d: scratch length %d, want 0", walk, len(thr.scratch))
		}
		// The walk must have restored every hint: the next walk sees the
		// same full (idle) port set, not a starved shard.
		if got := thr.shard.Len(); got != width {
			t.Fatalf("walk %d: shard holds %d hints, want %d", walk, got, width)
		}
	}
}

// TestIdleFindZeroAlloc guards the idle search: a find on an idle graph
// — own shard, steal sweep and global poll under the sharded list, the
// paper's walk under GlobalFreeList — must not allocate, since idle
// threads repeat it on every back-off step.
func TestIdleFindZeroAlloc(t *testing.T) {
	for _, global := range []bool{false, true} {
		s := New(pipelineGraph(t, 7, 1, &ops.Sink{}), Config{MaxThreads: 2, GlobalFreeList: global})
		thr := s.threads[0]
		var tp tuple.Tuple
		find := func() {
			if s.findWorkNonBlocking(&tp, thr) {
				t.Fatal("found work on an idle graph")
			}
		}
		if avg := testing.AllocsPerRun(200, find); avg != 0 {
			t.Errorf("GlobalFreeList=%v: idle find allocates %.2f times per call", global, avg)
		}
		s.Shutdown()
	}
}

// expander re-submits every input tuple k times to one output port —
// consecutive same-port submissions, the shape the submit-side coalescing
// buffer batches into a single PushN.
type expander struct {
	ops.Custom
	k int
}

func newExpander(name string, k int) *expander {
	e := &expander{k: k}
	e.OpName = name
	e.Fn = func(out graph.Submitter, tp tuple.Tuple, _ int) {
		for i := 0; i < e.k; i++ {
			out.Submit(tp, 0)
		}
	}
	return e
}

// TestPerStreamSeqOrderBatchedFanIn verifies the paper's per-stream
// global-ordering requirement against all three batching layers at once:
// the batched drain (schedule/reSchedule PopN), the submit-side
// coalescing (each expander invocation submits 3 consecutive tuples to
// the same port), and the partial-PushN back-pressure fallback (the
// fan-in sink port has a capacity-4 queue, so coalesced flushes routinely
// half-succeed and spill into reSchedule). Each expander's output stream
// carries stamped Seq numbers; the sink must observe every stream's Seq
// strictly increasing.
func TestPerStreamSeqOrderBatchedFanIn(t *testing.T) {
	const n = 4000
	const k = 3
	b := graph.NewBuilder()
	mkSrc := func(tag uint64) int {
		return b.AddNode(&ops.Generator{Limit: n, Payload: func(i uint64) tuple.Tuple {
			return tuple.NewData(tag, i)
		}}, 0, 1)
	}
	s0, s1 := mkSrc(0), mkSrc(1)
	e0 := b.AddNode(newExpander("expand0", k), 1, 1)
	e1 := b.AddNode(newExpander("expand1", k), 1, 1)
	b.Connect(s0, 0, e0, 0)
	b.Connect(s1, 0, e1, 0)

	var mu sync.Mutex
	lastSeq := map[uint64]int64{0: -1, 1: -1}
	lastVal := map[uint64]int64{0: -1, 1: -1}
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		tag := tp.Words[0]
		if seq := int64(tp.Seq); seq <= lastSeq[tag] {
			t.Errorf("stream %d: seq %d arrived after %d", tag, seq, lastSeq[tag])
		} else {
			lastSeq[tag] = seq
		}
		// The expander emits each source value k times; per stream the
		// values must arrive in non-decreasing source order.
		if v := int64(tp.Words[1]); v < lastVal[tag] {
			t.Errorf("stream %d: value %d arrived after %d", tag, v, lastVal[tag])
		} else {
			lastVal[tag] = v
		}
	}}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(e0, 0, sn, 0)
	b.Connect(e1, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 4}, 3)
	if got, want := snk.Count(), uint64(2*n*k); got != want {
		t.Fatalf("sink saw %d tuples, want %d", got, want)
	}
	// 2n expander executions + 2nk sink executions.
	if got, want := s.Executed(), uint64(2*n+2*n*k); got != want {
		t.Fatalf("Executed = %d, want %d", got, want)
	}
	if s.Reschedules() == 0 {
		t.Fatal("capacity-4 fan-in queue never triggered the partial-push reSchedule path")
	}
}

// TestCoalescingFanOutConservation checks the coalescing buffer against
// its hardest shape: an operator whose submissions alternate destination
// ports every call (fan-out to two subscribers), forcing a flush per
// buffered tuple, combined with multi-copy submissions that re-fill the
// buffer. Nothing may be lost, duplicated, or reordered per stream.
func TestCoalescingFanOutConservation(t *testing.T) {
	const n = 5000
	const k = 2
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	ex := b.AddNode(newExpander("expand", k), 1, 1)
	b.Connect(src, 0, ex, 0)
	var sinks [2]*ops.Sink
	var mus [2]sync.Mutex
	var seen [2][]uint64
	for i := range sinks {
		i := i
		sinks[i] = &ops.Sink{OnTuple: func(tp tuple.Tuple) {
			mus[i].Lock()
			seen[i] = append(seen[i], tp.Words[0])
			mus[i].Unlock()
		}}
		sn := b.AddNode(sinks[i], 1, 0)
		b.Connect(ex, 0, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runGraph(t, g, Config{MaxThreads: 4, QueueCap: 8}, 2)
	for i := range sinks {
		if got, want := sinks[i].Count(), uint64(n*k); got != want {
			t.Fatalf("sink %d saw %d tuples, want %d", i, got, want)
		}
		for j, v := range seen[i] {
			if v != uint64(j/k) {
				t.Fatalf("sink %d position %d: tuple %d out of order (want %d)", i, j, v, j/k)
			}
		}
	}
}

// TestBatchDrainTinyQueueCap exercises the degenerate batch size:
// QueueCap 1 makes every batch a single tuple and every coalesced flush a
// PushN(1) into a single-slot queue.
func TestBatchDrainTinyQueueCap(t *testing.T) {
	const n = 2000
	var mu sync.Mutex
	var seen []uint64
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		seen = append(seen, tp.Words[0])
		mu.Unlock()
	}}
	g := pipelineGraph(t, 8, n, snk)
	runGraph(t, g, Config{MaxThreads: 4, QueueCap: 1}, 2)
	if len(seen) != n {
		t.Fatalf("saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
}

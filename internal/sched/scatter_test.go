package sched

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// Tests for batch-granular tuple movement: scatter coalescing at
// fan-out, coalescing self-help drains, batched source submit.

// routeSplit sends each data tuple to the output port route picks from
// its first payload word. Window punctuation is forwarded by the runtime
// on every output port.
type routeSplit struct {
	width int
	route func(v uint64) int
}

func (r *routeSplit) Name() string { return "RouteSplit" }

func (r *routeSplit) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	out.Submit(t, r.route(t.Words[0]))
}

// windowMark is what a streamRecorder logs for a window punctuation.
const windowMark = ^uint64(0)

// streamRecorder is a one-input sink that logs, in arrival order, every
// data tuple's first word and every window punctuation, plus the stamped
// sequence number of each data tuple.
type streamRecorder struct {
	mu     sync.Mutex
	events []uint64
	seqs   []uint64
}

func (r *streamRecorder) Name() string { return "Rec" }

func (r *streamRecorder) Process(_ graph.Submitter, t tuple.Tuple, _ int) {
	r.mu.Lock()
	r.events = append(r.events, t.Words[0])
	r.seqs = append(r.seqs, t.Seq)
	r.mu.Unlock()
}

func (r *streamRecorder) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	if k == tuple.WindowMark {
		r.mu.Lock()
		r.events = append(r.events, windowMark)
		r.mu.Unlock()
	}
}

// splitGraph is src -> routeSplit -> width recorders, with runLen
// programmed forwarding workers (a fusable run when runLen >= 2) between
// each split output and its recorder. With tap set, every stream also
// feeds a shared tap sink, so no port is chainable and no run fuses.
func splitGraph(t *testing.T, source graph.Operator, width, runLen int, route func(uint64) int, tap bool) (*graph.Graph, []*streamRecorder) {
	t.Helper()
	b := graph.NewBuilder()
	connect := tapConnect(b, tap)
	src := b.AddNode(source, 0, 1)
	split := b.AddNode(&routeSplit{width: width, route: route}, 1, width)
	connect(src, 0, split)
	recs := make([]*streamRecorder, width)
	for w := range recs {
		prev, prevPort := split, w
		for i := 0; i < runLen; i++ {
			n := b.AddNode(&ops.Worker{Prog: ops.WorkerProgram("W", 0)}, 1, 1)
			connect(prev, prevPort, n)
			prev, prevPort = n, 0
		}
		recs[w] = &streamRecorder{}
		connect(prev, prevPort, b.AddNode(recs[w], 1, 0))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, recs
}

// TestScatterPerStreamFIFO runs a round-robin and a skewed split, window
// punctuation interleaved, through the slot table under the default
// configuration, with queues small enough that slot flushes keep meeting
// full queues (partial PushN, then push/reSchedule), and on a shape with
// chaining off (every stream tapped, so no port is chainable). Every
// output stream must deliver exactly the tuples routed to it,
// in order, with each window mark in position and sequence numbers
// contiguous — including on a fan-out wider than the slot table, where
// destinations share slots and evict each other, and with a fused run on
// every branch, where the marks make batches of one drain alternate
// between the per-operator path and the fused program (reached through
// the splitter's flush and, off the branch queues, at the dequeue). The
// paced cell submits in partial bursts, so the splitter, and whatever
// its flushes chain to, also runs on the source's own thread.
func TestScatterPerStreamFIFO(t *testing.T) {
	const n = 30000
	routes := map[string]struct {
		width int
		route func(v uint64) int
	}{
		"round-robin": {8, func(v uint64) int { return int(v % 8) }},
		// Three quarters of the tuples go to port 0; the rest hash.
		"skewed": {8, func(v uint64) int {
			if v%4 != 3 {
				return 0
			}
			return int(v * 2654435761 >> 7 % 8)
		}},
		"wide-wrap": {3 * maxSlots, func(v uint64) int { return int(v * 7 % (3 * maxSlots)) }},
	}
	cfgs := map[string]struct {
		cfg   Config
		tap   bool
		paced bool
	}{
		"default":    {Config{MaxThreads: 4}, false, false},
		"queue-full": {Config{MaxThreads: 4, QueueCap: 4}, false, false},
		"no-chain":   {Config{MaxThreads: 4, QueueCap: 16}, true, false},
		"paced":      {Config{MaxThreads: 4}, false, true},
	}
	input := make([]tuple.Tuple, 0, n+n/97+1)
	for i := uint64(0); i < n; i++ {
		if i%97 == 96 {
			input = append(input, tuple.Window())
		}
		input = append(input, tuple.NewData(i))
	}
	for rname, r := range routes {
		want := make([][]uint64, r.width)
		for _, tp := range input {
			if tp.Kind == tuple.WindowMark {
				for w := range want {
					want[w] = append(want[w], windowMark)
				}
			} else {
				w := r.route(tp.Words[0])
				want[w] = append(want[w], tp.Words[0])
			}
		}
		for cname, c := range cfgs {
			for _, runLen := range []int{0, 3} {
				name := rname + "/" + cname
				if runLen > 0 {
					name += "/fused-run"
				}
				t.Run(name, func(t *testing.T) {
					var src graph.Operator = &ops.SliceSource{Tuples: input}
					if c.paced {
						src = &pacedSource{tuples: input, maxBurst: 7}
					}
					g, recs := splitGraph(t, src, r.width, runLen, r.route, c.tap)
					s := runGraph(t, g, c.cfg, 3)
					for w, rec := range recs {
						if len(rec.events) != len(want[w]) {
							t.Fatalf("port %d: %d events, want %d", w, len(rec.events), len(want[w]))
						}
						data := 0
						for i, ev := range rec.events {
							if ev != want[w][i] {
								t.Fatalf("port %d event %d: got %d, want %d", w, i, ev, want[w][i])
							}
							if ev == windowMark {
								continue
							}
							// Marks take sequence numbers too, so a data
							// tuple's Seq is its position among the events.
							if rec.seqs[data] != uint64(i) {
								t.Fatalf("port %d event %d: seq %d", w, i, rec.seqs[data])
							}
							data++
						}
					}
					if cname == "queue-full" && s.Reschedules() == 0 {
						t.Error("capacity-4 queues never pushed a slot flush into reSchedule")
					}
					if st := s.Stats(); c.tap && (st.Chain.Links != 0 || st.VM.FusedRuns != 0) {
						t.Errorf("chained %d links and fused %d runs with no chainable port", st.Chain.Links, st.VM.FusedRuns)
					}
					if sc := s.Stats().Chain.SourceCommits; c.paced != (sc != 0) {
						t.Errorf("SourceCommits = %d with a paced source %v", sc, c.paced)
					}
				})
			}
		}
	}
}

// TestScatterSlotBounds drives a w=1000 round-robin splitter by hand (no
// scheduler thread runs) and checks the residency bounds after every
// batch: the slot table is capped at maxSlots however wide the fan-out,
// no slot exceeds batchCap, the context never holds more than
// maxSlots*batchCap tuples nor borrows more than maxSlots buffers, and
// endCoalesce leaves nothing behind — every tuple is in its destination
// queue, in order.
func TestScatterSlotBounds(t *testing.T) {
	for _, width := range []int{1, 8, maxSlots, 1000} {
		t.Run(fmt.Sprint("w", width), func(t *testing.T) {
			b := graph.NewBuilder()
			src := b.AddNode(&ops.Generator{Limit: 1}, 0, 1)
			split := b.AddNode(&ops.RoundRobinSplit{Width: width}, 1, width)
			b.Connect(src, 0, split, 0)
			for w := 0; w < width; w++ {
				b.Connect(split, w, b.AddNode(&ops.Sink{}, 1, 0), 0)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			s := New(g, Config{MaxThreads: 1, QueueCap: 256})
			defer s.Shutdown()
			p := g.Ports[g.Nodes[split].InPorts[0]]
			ec := s.acquireCtx(p, 0, s.threads[0])
			ec.chainLeft = -1
			if len(ec.slots) > maxSlots || len(ec.slots) < min(width, maxSlots) {
				t.Fatalf("slot table has %d entries for fan-out %d", len(ec.slots), width)
			}
			batch := make([]tuple.Tuple, s.batchCap)
			next := uint64(0)
			for round := 0; round < 200; round++ {
				for i := range batch {
					batch[i] = tuple.NewData(next)
					next++
				}
				s.executeBatch(ec, p, batch)
				held, bufs := 0, 0
				for i := range ec.slots {
					sl := &ec.slots[i]
					if sl.n > s.batchCap {
						t.Fatalf("slot %d holds %d tuples, batchCap %d", i, sl.n, s.batchCap)
					}
					held += sl.n
					if sl.buf != nil {
						bufs++
					}
				}
				if held > maxSlots*s.batchCap || bufs > maxSlots {
					t.Fatalf("context holds %d tuples in %d buffers", held, bufs)
				}
				if width >= 8 && width <= maxSlots && round > 0 && held == 0 {
					t.Fatalf("round %d: nothing coalesced at fan-out %d", round, width)
				}
				// Keep the destination queues from filling.
				if round%8 == 7 {
					ec.endCoalesce()
					checkScatterQueues(t, s, g, split, width)
				}
			}
			ec.endCoalesce()
			for i := range ec.slots[:cap(ec.slots)] {
				if sl := &ec.slots[:cap(ec.slots)][i]; sl.n != 0 || sl.buf != nil {
					t.Fatalf("slot %d not empty after endCoalesce: n=%d buf=%v", i, sl.n, sl.buf != nil)
				}
			}
			checkScatterQueues(t, s, g, split, width)
			s.releaseCtx(ec)
		})
	}
}

// checkScatterQueues empties the splitter's destination queues, checking
// that destination w holds exactly the round-robin residue class w, in
// order, continuing from what earlier calls saw.
func checkScatterQueues(t *testing.T, s *Scheduler, g *graph.Graph, split, width int) {
	t.Helper()
	var tp tuple.Tuple
	for w := 0; w < width; w++ {
		q := s.queues[g.Nodes[split].Outs[w][0]].Queue()
		for q.Pop(&tp) {
			if int(tp.Words[0]%uint64(width)) != w || tp.Seq != tp.Words[0]/uint64(width) {
				t.Fatalf("destination %d got tuple %d with seq %d", w, tp.Words[0], tp.Seq)
			}
		}
	}
}

// nodeExecuted reads one node's execution count.
func nodeExecuted(s *Scheduler, id int) uint64 {
	counts := make([]uint64, len(s.g.Nodes))
	s.NodeExecuted(counts)
	return counts[id]
}

// dataParallelGraph is ops.Topology{Width: width, Depth: 1, Limit: n}:
// Src -> round-robin split -> width workers -> one sink. With tap set,
// every stream also feeds a shared tap sink, so no port is chainable.
func dataParallelGraph(t *testing.T, width int, n uint64, tap bool) (*graph.Graph, *ops.Sink) {
	t.Helper()
	b := graph.NewBuilder()
	connect := tapConnect(b, tap)
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	split := b.AddNode(&ops.RoundRobinSplit{Width: width}, 1, width)
	connect(src, 0, split)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	for w := 0; w < width; w++ {
		wk := b.AddNode(&ops.Worker{}, 1, 1)
		connect(split, w, wk)
		connect(wk, 0, sn)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, snk
}

// TestScatterResidencyLive checks the residency property on a running
// PE: a tuple never outlives the drain that produced it. Whenever the
// test holds the consumer locks of the splitter and of every worker, no
// frame of theirs is executing, so every tuple the splitter has executed
// must by then be in a worker's queue or already executed by it — a
// tuple still sitting in a released context's slot would be missing from
// both sides.
func TestScatterResidencyLive(t *testing.T) {
	const n, width = 300000, 8
	for name, c := range map[string]struct {
		cfg Config
		tap bool
	}{
		"default":  {Config{MaxThreads: 4}, false},
		"no-chain": {Config{MaxThreads: 4, QueueCap: 8}, true},
	} {
		t.Run(name, func(t *testing.T) {
			g, snk := dataParallelGraph(t, width, n, c.tap)
			var split *graph.Node
			var workers []*graph.Node
			for _, nd := range g.Nodes {
				switch nd.Op.(type) {
				case *ops.RoundRobinSplit:
					split = nd
				case *ops.Worker:
					workers = append(workers, nd)
				}
			}
			s := New(g, c.cfg)
			ports := []int{split.InPorts[0]}
			for _, w := range workers {
				ports = append(ports, w.InPorts[0])
			}
			stopCheck := make(chan struct{})
			// lockAll takes every consumer lock in ports, or none if the
			// run ends first (the last holder may never release).
			lockAll := func() bool {
				for i, pid := range ports {
					for !s.queues[pid].ConsTryLock() {
						select {
						case <-stopCheck:
							for _, held := range ports[:i] {
								s.queues[held].ConsUnlock()
							}
							return false
						default:
							runtime.Gosched()
						}
					}
				}
				return true
			}
			checked := make(chan int)
			go func() {
				checks := 0
				defer func() { checked <- checks }()
				for lockAll() {
					out := nodeExecuted(s, split.ID)
					var in uint64
					for _, w := range workers {
						in += nodeExecuted(s, w.ID) + uint64(s.queues[w.InPorts[0]].Queue().Len())
					}
					for _, pid := range ports {
						s.queues[pid].ConsUnlock()
					}
					// Queue lengths count the final marks the splitter
					// forwards at the very end; executions do not.
					if in < out || in > out+width {
						t.Errorf("splitter executed %d tuples, workers hold or executed %d", out, in)
						return
					}
					checks++
					select {
					case <-stopCheck:
						return
					case <-time.After(200 * time.Microsecond):
					}
				}
			}()
			s.Start(3)
			stop := make(chan struct{})
			src := g.SourceNodes[0]
			src.Op.(graph.Source).Run(s.SourceSubmitter(src, 0), stop)
			s.SourceDone(src, 0)
			waited := make(chan struct{})
			go func() { s.Wait(); close(waited) }()
			select {
			case <-waited:
			case <-time.After(60 * time.Second):
				t.Fatal("scheduler did not drain within 60s")
			}
			close(stopCheck)
			if checks := <-checked; checks == 0 {
				t.Error("the residency check never got all the locks")
			}
			if got := snk.Count(); got != n {
				t.Fatalf("sink saw %d tuples, want %d", got, n)
			}
			for _, w := range workers {
				if got := nodeExecuted(s, w.ID); got != n/width {
					t.Errorf("worker %s executed %d, want %d", w.Op.Name(), got, n/width)
				}
			}
		})
	}
}

// plainSubmitter hides a submitter's SubmitBatch, like the wrapping
// submitters that time or count at the source seam.
type plainSubmitter struct{ out graph.Submitter }

func (p plainSubmitter) Submit(t tuple.Tuple, port int) { p.out.Submit(t, port) }

// TestSubmitBatchMatchesSubmitLoop feeds the same tuples, a window mark
// among them, to a two-subscriber source stream three ways — a Submit
// loop, SubmitBatch, and graph.SubmitBatch over a submitter that cannot
// batch — and requires identical queue contents: order, ports, sequence
// numbers, and stamps on data tuples only. Part of the input exceeds the
// queue capacity, so the tail of each run goes through push/reSchedule,
// where the submitting goroutine executes the sinks itself.
func TestSubmitBatchMatchesSubmitLoop(t *testing.T) {
	const qcap, n = 8, 40
	type seen struct {
		val, seq uint64
		stamped  bool
	}
	run := func(submit func(out graph.Submitter, ts []tuple.Tuple)) [2][]seen {
		var got [2][]seen
		b := graph.NewBuilder()
		src := b.AddNode(&ops.Generator{Limit: 1}, 0, 1)
		for i := range got {
			i := i
			snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
				got[i] = append(got[i], seen{tp.Words[0], tp.Seq, tp.Stamp != 0})
			}}
			b.Connect(src, 0, b.AddNode(snk, 1, 0), 0)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := New(g, Config{MaxThreads: 1, QueueCap: qcap, Latency: metrics.NewHistogram(2)})
		defer s.Shutdown()
		ts := make([]tuple.Tuple, 0, n)
		for i := uint64(0); i < n; i++ {
			if i == n/2 {
				ts = append(ts, tuple.Window())
			}
			ts = append(ts, tuple.NewData(i))
		}
		out := s.SourceSubmitter(g.SourceNodes[0], 0)
		submit(out, ts[:5])
		submit(out, ts[5:])
		// What self-help did not execute is still queued: drain it the
		// way a scheduler thread would.
		for i := range got {
			p := g.Ports[g.SourceNodes[0].Outs[0][i]]
			ec := s.acquireCtx(p, 0, s.threads[0])
			buf := make([]tuple.Tuple, qcap)
			for k := s.queues[p.ID].Queue().PopN(buf); k > 0; k = s.queues[p.ID].Queue().PopN(buf) {
				s.executeBatch(ec, p, buf[:k])
			}
			ec.endCoalesce()
			s.releaseCtx(ec)
		}
		return got
	}
	loop := run(func(out graph.Submitter, ts []tuple.Tuple) {
		for _, tp := range ts {
			out.Submit(tp, 0)
		}
	})
	batch := run(func(out graph.Submitter, ts []tuple.Tuple) {
		out.(graph.BatchSubmitter).SubmitBatch(ts, 0)
	})
	fallback := run(func(out graph.Submitter, ts []tuple.Tuple) {
		graph.SubmitBatch(plainSubmitter{out}, ts, 0)
	})
	for i := range loop {
		if len(loop[i]) != n {
			t.Fatalf("subscriber %d saw %d data tuples from the Submit loop, want %d", i, len(loop[i]), n)
		}
		for k, want := range loop[i] {
			if want.val != uint64(k) || !want.stamped {
				t.Fatalf("subscriber %d position %d: Submit loop delivered %+v", i, k, want)
			}
			if len(batch[i]) != n || batch[i][k] != want {
				t.Fatalf("subscriber %d position %d: SubmitBatch delivered %+v, Submit %+v", i, k, batch[i][k], want)
			}
			if len(fallback[i]) != n || fallback[i][k] != want {
				t.Fatalf("subscriber %d position %d: fallback delivered %+v, Submit %+v", i, k, fallback[i][k], want)
			}
		}
		// The window mark took sequence number n/2.
		if loop[i][n/2].seq != n/2+1 {
			t.Fatalf("subscriber %d: seq after the mark is %d", i, loop[i][n/2].seq)
		}
	}
}

// TestScatterAndSubmitBatchZeroAlloc guards the steady state of the two
// new batch paths: a splitter drain scattering a full batch over eight
// slots, flushed into the queues, and a source SubmitBatch. Buffers come
// from the thread's spares and contexts from its free list, so neither
// allocates once warm.
func TestScatterAndSubmitBatchZeroAlloc(t *testing.T) {
	const width = 8
	g, _, err := ops.Topology{Width: width, Depth: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var split *graph.Node
	for _, nd := range g.Nodes {
		if _, ok := nd.Op.(*ops.RoundRobinSplit); ok {
			split = nd
		}
	}
	s := New(g, Config{MaxThreads: 1})
	defer s.Shutdown()
	p := g.Ports[split.InPorts[0]]
	batch := make([]tuple.Tuple, s.batchCap)
	scratch := make([]tuple.Tuple, s.cfg.QueueCap)
	scatter := func() {
		ec := s.acquireCtx(p, 0, s.threads[0])
		ec.chainLeft = -1
		for round := 0; round < 4; round++ {
			s.executeBatch(ec, p, batch)
		}
		ec.endCoalesce()
		s.releaseCtx(ec)
		for w := 0; w < width; w++ {
			s.queues[split.Outs[w][0]].Queue().PopN(scratch)
		}
	}
	if avg := testing.AllocsPerRun(200, scatter); avg != 0 {
		t.Errorf("steady-state scatter allocates %.2f times per drain", avg)
	}
	if nodeExecuted(s, split.ID) == 0 {
		t.Fatal("the scatter loop executed nothing")
	}
	out := s.SourceSubmitter(g.SourceNodes[0], 0)
	submit := func() {
		graph.SubmitBatch(out, batch, 0)
		s.queues[p.ID].Queue().PopN(scratch)
	}
	if avg := testing.AllocsPerRun(200, submit); avg != 0 {
		t.Errorf("SubmitBatch allocates %.2f times per batch", avg)
	}
}

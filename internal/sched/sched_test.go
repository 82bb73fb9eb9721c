package sched

import (
	"sync"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// runGraph builds the graph, runs every source to completion on its own
// goroutine, waits for the PE to drain, and returns the scheduler for
// inspection.
func runGraph(t *testing.T, g *graph.Graph, cfg Config, threads int) *Scheduler {
	t.Helper()
	s := New(g, cfg)
	drainScheduler(t, s, threads)
	return s
}

// drainScheduler starts threads scheduler threads and g's source
// threads on s, and returns once the run has drained and every thread
// has exited.
func drainScheduler(t *testing.T, s *Scheduler, threads int) {
	t.Helper()
	g := s.g
	s.Start(threads)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, n := range g.SourceNodes {
		wg.Add(1)
		go func(i int, n *graph.Node) {
			defer wg.Done()
			n.Op.(graph.Source).Run(s.SourceSubmitter(n, i), stop)
			s.SourceDone(n, i)
		}(i, n)
	}
	donech := make(chan struct{})
	go func() { s.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler did not drain within 30s")
	}
	close(stop)
	wg.Wait()
}

// newOrderSink returns a sink that appends each tuple's first payload
// word to *seen under mu.
func newOrderSink(mu *sync.Mutex, seen *[]uint64) *ops.Sink {
	return &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		*seen = append(*seen, tp.Words[0])
		mu.Unlock()
	}}
}

// pipelineGraph returns Src -> W×depth -> Snk with a bounded generator.
func pipelineGraph(t *testing.T, depth int, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		n := b.AddNode(&ops.Worker{}, 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(prev, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tapConnect returns a connect function for b's single-input-port
// destinations that, when tap is set, also feeds every stream it
// connects to one shared tap sink. A stream with two subscribers makes
// both destination ports unchainable (graph.InPort.Chainable), so a
// graph whose streams are all tapped never chains and never fuses.
func tapConnect(b *graph.Builder, tap bool) func(from, fromPort, to int) {
	tapNode := -1
	return func(from, fromPort, to int) {
		b.Connect(from, fromPort, to, 0)
		if tap {
			if tapNode < 0 {
				tapNode = b.AddNode(&ops.Sink{OpName: "Tap"}, 1, 0)
			}
			b.Connect(from, fromPort, tapNode, 0)
		}
	}
}

// tappedPipelineGraph is pipelineGraph with stream k (0 is the
// source's) tapped (see tapConnect) when k is a multiple of maxRun+1, so
// no chain can run more than maxRun links; maxRun 0 leaves no port
// chainable at all.
func tappedPipelineGraph(t *testing.T, depth, maxRun int, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	plain, tapped := tapConnect(b, false), tapConnect(b, true)
	prev := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	for k := 0; k <= depth; k++ {
		var n int
		if k < depth {
			n = b.AddNode(&ops.Worker{}, 1, 1)
		} else {
			n = b.AddNode(snk, 1, 0)
		}
		if k%(maxRun+1) == 0 {
			tapped(prev, 0, n)
		} else {
			plain(prev, 0, n)
		}
		prev = n
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPipelineDeliversAll(t *testing.T) {
	const n = 20000
	snk := &ops.Sink{}
	g := pipelineGraph(t, 10, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4}, 2)
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
	if got := s.SinkDelivered(); got != n {
		t.Fatalf("SinkDelivered = %d, want %d", got, n)
	}
	// Every tuple is executed once per operator: 10 workers + 1 sink.
	if got, want := s.Executed(), uint64(n*11); got != want {
		t.Fatalf("Executed = %d, want %d", got, want)
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	const n = 20000
	var mu sync.Mutex
	var seen []uint64
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		seen = append(seen, tp.Words[0])
		mu.Unlock()
	}}
	g := pipelineGraph(t, 20, n, snk)
	runGraph(t, g, Config{MaxThreads: 8, QueueCap: 16}, 4)
	if len(seen) != n {
		t.Fatalf("saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
}

func TestDataParallelDeliversAll(t *testing.T) {
	const n = 20000
	const width = 32
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	split := b.AddNode(&ops.RoundRobinSplit{Width: width}, 1, width)
	b.Connect(src, 0, split, 0)
	snk := &ops.Sink{}
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
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 16}, 3)
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
	_ = s
}

// TestPerStreamOrderWithFanIn verifies the formal ordering requirement
// with two producers fanning into one sink port: each producer's tuples
// must arrive in that producer's submission order.
func TestPerStreamOrderWithFanIn(t *testing.T) {
	const n = 5000
	b := graph.NewBuilder()
	mk := func(tag uint64) int {
		return b.AddNode(&ops.Generator{Limit: n, Payload: func(i uint64) tuple.Tuple {
			return tuple.NewData(tag, i)
		}}, 0, 1)
	}
	s0, s1 := mk(0), mk(1)
	var mu sync.Mutex
	last := map[uint64]int64{0: -1, 1: -1}
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		tag, i := tp.Words[0], int64(tp.Words[1])
		if i <= last[tag] {
			t.Errorf("producer %d: tuple %d arrived after %d", tag, i, last[tag])
		}
		last[tag] = i
	}}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(s0, 0, sn, 0)
	b.Connect(s1, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runGraph(t, g, Config{MaxThreads: 4, QueueCap: 8}, 2)
	if got := snk.Count(); got != 2*n {
		t.Fatalf("sink saw %d tuples, want %d", got, 2*n)
	}
}

// TestFanOutDuplicates verifies that a stream with two subscribers
// delivers every tuple to both, in order.
func TestFanOutDuplicates(t *testing.T) {
	const n = 5000
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	var sinks [2]*ops.Sink
	for i := range sinks {
		sinks[i] = &ops.Sink{}
		sn := b.AddNode(sinks[i], 1, 0)
		b.Connect(src, 0, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runGraph(t, g, Config{MaxThreads: 4}, 2)
	for i, s := range sinks {
		if got := s.Count(); got != n {
			t.Fatalf("sink %d saw %d tuples, want %d", i, got, n)
		}
	}
}

// TestTinyQueuesForceReschedule shrinks queues so producers constantly
// hit the reSchedule path, and checks nothing is lost or reordered.
func TestTinyQueuesForceReschedule(t *testing.T) {
	const n = 10000
	var mu sync.Mutex
	var seen []uint64
	snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
		mu.Lock()
		seen = append(seen, tp.Words[0])
		mu.Unlock()
	}}
	g := pipelineGraph(t, 50, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 2}, 2)
	if len(seen) != n {
		t.Fatalf("saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
	if s.Reschedules() == 0 {
		t.Fatal("expected reSchedule path to be exercised with capacity-2 queues")
	}
}

func TestSingleThreadLevel(t *testing.T) {
	const n = 5000
	snk := &ops.Sink{}
	g := pipelineGraph(t, 10, n, snk)
	runGraph(t, g, Config{MaxThreads: 2}, 1)
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
}

func TestSetLevelClampsAndReports(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 2, 1, snk)
	s := New(g, Config{MaxThreads: 4})
	if got := s.SetLevel(0); got != 1 {
		t.Fatalf("SetLevel(0) = %d, want 1", got)
	}
	if got := s.SetLevel(99); got != 4 {
		t.Fatalf("SetLevel(99) = %d, want 4", got)
	}
	if got := s.Level(); got != 4 {
		t.Fatalf("Level = %d, want 4", got)
	}
	s.Shutdown()
}

func TestMinLevelRule(t *testing.T) {
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: 1}, 0, 3)
	j := b.AddNode(&ops.Custom{}, 3, 0)
	for i := 0; i < 3; i++ {
		b.Connect(src, i, j, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxThreads: 8})
	if got := s.MinLevel(); got != 4 {
		t.Fatalf("MinLevel = %d, want 4 (max input ports 3 + 1)", got)
	}
	s.Shutdown()
}

// TestSuspendResume checks that lowering the level parks threads (they
// report as effectively suspended) and that raising it again resumes
// processing.
func TestSuspendResume(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 5, 0 /* unbounded */, snk)
	s := New(g, Config{MaxThreads: 4})
	s.Start(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	n := g.SourceNodes[0]
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.Op.(graph.Source).Run(s.SourceSubmitter(n, 0), stop)
		s.SourceDone(n, 0)
	}()

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("tuples to flow", func() bool { return snk.Count() > 100 })

	s.SetLevel(1)
	waitFor("suspensions to take effect", s.SuspensionsEffective)

	before := snk.Count()
	s.SetLevel(4)
	waitFor("processing to resume", func() bool { return snk.Count() > before+100 })

	close(stop)
	wg.Wait()
	s.Wait()
	if !s.SuspensionsEffective() {
		t.Fatal("SuspensionsEffective should hold after drain")
	}
}

// TestShutdownWithoutDrain verifies Shutdown stops threads even while
// tuples are still flowing.
func TestShutdownWithoutDrain(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 5, 0, snk)
	s := New(g, Config{MaxThreads: 4})
	s.Start(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	n := g.SourceNodes[0]
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.Op.(graph.Source).Run(s.SourceSubmitter(n, 0), stop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for snk.Count() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("no tuples flowed")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop) // stop the source first, as the PE contract requires
	wg.Wait()
	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
}

// TestFinalizerFlush verifies operators get a Finish callback when all
// their inputs close, and that flushed tuples still reach the sink.
type flushOp struct {
	ops.Custom
	flushes int
}

func (f *flushOp) Finish(out graph.Submitter) {
	f.flushes++
	out.Submit(tuple.NewData(999), 0)
}

func TestFinalizerFlush(t *testing.T) {
	const n = 100
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	fo := &flushOp{Custom: ops.Custom{Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		out.Submit(tp, 0)
	}}}
	fn := b.AddNode(fo, 1, 1)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, fn, 0)
	b.Connect(fn, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runGraph(t, g, Config{MaxThreads: 2}, 1)
	if fo.flushes != 1 {
		t.Fatalf("Finish called %d times, want 1", fo.flushes)
	}
	if got := snk.Count(); got != n+1 {
		t.Fatalf("sink saw %d tuples, want %d (including flushed)", got, n+1)
	}
}

// TestWindowPunctuationForwarded verifies window marks traverse the graph
// and are observable by Puncts implementers.
type punctObserver struct {
	ops.Custom
	mu      sync.Mutex
	windows int
}

func (p *punctObserver) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	if k == tuple.WindowMark {
		p.mu.Lock()
		p.windows++
		p.mu.Unlock()
	}
}

type windowSource struct {
	n int
}

func (w *windowSource) Name() string                              { return "winSrc" }
func (w *windowSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (w *windowSource) Run(out graph.Submitter, stop <-chan struct{}) {
	for i := 0; i < w.n; i++ {
		out.Submit(tuple.NewData(uint64(i)), 0)
		out.Submit(tuple.Window(), 0)
	}
}

func TestWindowPunctuationForwarded(t *testing.T) {
	const n = 50
	b := graph.NewBuilder()
	src := b.AddNode(&windowSource{n: n}, 0, 1)
	po := &punctObserver{Custom: ops.Custom{Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		out.Submit(tp, 0)
	}}}
	mid := b.AddNode(po, 1, 1)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, mid, 0)
	b.Connect(mid, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runGraph(t, g, Config{MaxThreads: 2}, 1)
	po.mu.Lock()
	defer po.mu.Unlock()
	if po.windows != n {
		t.Fatalf("observed %d window punctuations, want %d", po.windows, n)
	}
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d data tuples, want %d", got, n)
	}
}

func TestConfigValidation(t *testing.T) {
	g := pipelineGraph(t, 1, 1, &ops.Sink{})
	for name, cfg := range map[string]Config{
		"non-power-of-two QueueCap": {QueueCap: 3},
		"negative QueueCap":         {QueueCap: -4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(g, cfg)
		}()
	}
}

func TestStatsCountersAdvance(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 5, 2000, snk)
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 4}, 3)
	if s.Executed() == 0 || s.SinkDelivered() == 0 {
		t.Fatal("counters did not advance")
	}
}

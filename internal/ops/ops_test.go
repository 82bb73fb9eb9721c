package ops

import (
	"sync"
	"testing"

	"streams/internal/graph"
	"streams/internal/tuple"
)

// collector implements graph.Submitter, recording submissions.
type collector struct {
	mu   sync.Mutex
	got  []tuple.Tuple
	port []int
}

func (c *collector) Submit(t tuple.Tuple, outPort int) {
	c.mu.Lock()
	c.got = append(c.got, t)
	c.port = append(c.port, outPort)
	c.mu.Unlock()
}

func TestGeneratorBounded(t *testing.T) {
	g := &Generator{Limit: 10}
	c := &collector{}
	g.Run(c, make(chan struct{}))
	if len(c.got) != 10 {
		t.Fatalf("generated %d tuples, want 10", len(c.got))
	}
	for i, tp := range c.got {
		if tp.Words[0] != uint64(i) {
			t.Fatalf("tuple %d carries %d", i, tp.Words[0])
		}
	}
	if g.Produced() != 10 {
		t.Fatalf("Produced = %d", g.Produced())
	}
}

func TestGeneratorStops(t *testing.T) {
	g := &Generator{}
	stop := make(chan struct{})
	close(stop)
	c := &collector{}
	g.Run(c, stop) // must return promptly with stop already closed
	if len(c.got) > 1 {
		t.Fatalf("generator ran past stop: %d tuples", len(c.got))
	}
}

func TestGeneratorCustomPayload(t *testing.T) {
	g := &Generator{Limit: 3, Payload: func(i uint64) tuple.Tuple { return tuple.NewData(i * 7) }}
	c := &collector{}
	g.Run(c, make(chan struct{}))
	if c.got[2].Words[0] != 14 {
		t.Fatalf("payload hook ignored: %v", c.got[2])
	}
}

func TestSpinNonTrivial(t *testing.T) {
	a := Spin(1000, 1)
	b := Spin(1000, 2)
	if a == 0 || b == 0 {
		t.Fatal("Spin returned zero")
	}
	if Spin(0, 5) != Spin(0, 5) {
		t.Fatal("Spin not deterministic")
	}
}

func TestWorkerForwards(t *testing.T) {
	w := &Worker{Cost: 100}
	c := &collector{}
	in := tuple.NewData(42)
	w.Process(c, in, 0)
	if len(c.got) != 1 || c.got[0].Words[0] != 42 {
		t.Fatalf("worker did not forward: %v", c.got)
	}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	var observed int
	s.OnTuple = func(tuple.Tuple) { observed++ }
	for i := 0; i < 5; i++ {
		s.Process(nil, tuple.NewData(uint64(i)), 0)
	}
	if s.Count() != 5 || observed != 5 {
		t.Fatalf("Count=%d observed=%d", s.Count(), observed)
	}
}

func TestSinkConcurrent(t *testing.T) {
	s := &Sink{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Process(nil, tuple.Tuple{}, 0)
			}
		}()
	}
	wg.Wait()
	if s.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count())
	}
}

func TestFilter(t *testing.T) {
	f := &Filter{Pred: func(tp tuple.Tuple) bool { return tp.Words[0]%2 == 0 }}
	c := &collector{}
	for i := uint64(0); i < 10; i++ {
		f.Process(c, tuple.NewData(i), 0)
	}
	if len(c.got) != 5 {
		t.Fatalf("filter passed %d tuples, want 5", len(c.got))
	}
	// Nil predicate forwards everything.
	f2 := &Filter{}
	f2.Process(c, tuple.NewData(1), 0)
	if len(c.got) != 6 {
		t.Fatal("nil predicate dropped a tuple")
	}
}

func TestCustomAndFunctor(t *testing.T) {
	c := &collector{}
	cu := &Custom{Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		out.Submit(tp, 0)
		out.Submit(tp, 0)
	}}
	cu.Process(c, tuple.NewData(1), 0)
	if len(c.got) != 2 {
		t.Fatalf("custom emitted %d", len(c.got))
	}
	fn := &Functor{Fn: func(tp tuple.Tuple) tuple.Tuple {
		tp.Words[0] *= 10
		return tp
	}}
	fn.Process(c, tuple.NewData(5), 0)
	if c.got[2].Words[0] != 50 {
		t.Fatalf("functor result %v", c.got[2])
	}
	// Nil functor forwards unchanged; nil custom emits nothing.
	(&Functor{}).Process(c, tuple.NewData(7), 0)
	if c.got[3].Words[0] != 7 {
		t.Fatal("nil functor mutated tuple")
	}
	before := len(c.got)
	(&Custom{}).Process(c, tuple.NewData(1), 0)
	if len(c.got) != before {
		t.Fatal("nil custom emitted")
	}
}

func TestRoundRobinSplit(t *testing.T) {
	s := &RoundRobinSplit{Width: 3}
	c := &collector{}
	for i := 0; i < 9; i++ {
		s.Process(c, tuple.NewData(uint64(i)), 0)
	}
	counts := map[int]int{}
	for _, p := range c.port {
		counts[p]++
	}
	for w := 0; w < 3; w++ {
		if counts[w] != 3 {
			t.Fatalf("port %d got %d tuples, want 3 (%v)", w, counts[w], counts)
		}
	}
	// Zero width degrades to a single output.
	s0 := &RoundRobinSplit{}
	c0 := &collector{}
	s0.Process(c0, tuple.Tuple{}, 0)
	if c0.port[0] != 0 {
		t.Fatal("zero-width split used wrong port")
	}
}

func TestSliceSource(t *testing.T) {
	src := &SliceSource{Tuples: []tuple.Tuple{tuple.NewData(9), tuple.NewData(8)}}
	c := &collector{}
	src.Run(c, make(chan struct{}))
	if len(c.got) != 2 || c.got[0].Words[0] != 9 || c.got[0].Seq != 0 || c.got[1].Seq != 1 {
		t.Fatalf("slice source output %v", c.got)
	}
}

func TestDefaultNames(t *testing.T) {
	names := map[string]interface{ Name() string }{
		"Src":         &Generator{},
		"Worker":      &Worker{},
		"Snk":         &Sink{},
		"Filter":      &Filter{},
		"Custom":      &Custom{},
		"Functor":     &Functor{},
		"Split":       &RoundRobinSplit{},
		"SliceSource": &SliceSource{},
	}
	for want, op := range names {
		if got := op.Name(); got != want {
			t.Errorf("default name %q, want %q", got, want)
		}
	}
	if (&Worker{OpName: "X"}).Name() != "X" {
		t.Error("explicit name ignored")
	}
}

func TestTopologyBuild(t *testing.T) {
	cases := []struct {
		topo        Topology
		nodes, pts  int
		description string
	}{
		{Pipeline(10, 1), 12, 11, "pipeline"},                   // src + 10 + snk
		{DataParallel(8, 1), 11, 10, "data parallel"},           // src + split + 8 + snk
		{Mixed(3, 4, 1), 15, 14, "mixed"},                       // src + split + 12 + snk
		{Topology{Width: 1, Depth: 1, Cost: 0}, 3, 2, "single"}, // src + w + snk
	}
	for _, tc := range cases {
		g, snk, err := tc.topo.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.description, err)
		}
		if snk == nil {
			t.Fatalf("%s: nil sink", tc.description)
		}
		if len(g.Nodes) != tc.nodes || len(g.Ports) != tc.pts {
			t.Fatalf("%s: %d nodes %d ports, want %d/%d",
				tc.description, len(g.Nodes), len(g.Ports), tc.nodes, tc.pts)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, _, err := (Topology{Width: 0, Depth: 5}).Build(); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, _, err := (Topology{Width: 5, Depth: 0}).Build(); err == nil {
		t.Fatal("depth 0 accepted")
	}
}

func TestTopologyString(t *testing.T) {
	if got := Mixed(10, 100, 1000).String(); got != "w 10, d 100, cost 1000" {
		t.Fatalf("String() = %q", got)
	}
	if Mixed(10, 100, 0).Workers() != 1000 {
		t.Fatal("Workers() wrong")
	}
}

// batchCollector is a collector that also takes batches, recording
// their sizes.
type batchCollector struct {
	collector
	sizes []int
}

func (c *batchCollector) SubmitBatch(ts []tuple.Tuple, outPort int) {
	c.sizes = append(c.sizes, len(ts))
	for _, t := range ts {
		c.Submit(t, outPort)
	}
}

// TestGeneratorSubmitsBatches: against a batching submitter the
// generator hands over full batches and one short tail, every tuple
// once and in order, and Produced counts only what was submitted.
func TestGeneratorSubmitsBatches(t *testing.T) {
	const n = 2*graph.BatchSize + 6
	g := &Generator{Limit: n}
	c := &batchCollector{}
	g.Run(c, make(chan struct{}))
	if want := []int{graph.BatchSize, graph.BatchSize, 6}; len(c.sizes) != 3 || c.sizes[0] != want[0] || c.sizes[1] != want[1] || c.sizes[2] != want[2] {
		t.Fatalf("batch sizes %v, want %v", c.sizes, want)
	}
	for i, tp := range c.got {
		if tp.Words[0] != uint64(i) {
			t.Fatalf("tuple %d carries %d", i, tp.Words[0])
		}
	}
	if len(c.got) != n || g.Produced() != n {
		t.Fatalf("submitted %d, Produced %d, want %d", len(c.got), g.Produced(), n)
	}
}

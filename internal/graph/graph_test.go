package graph

import (
	"strings"
	"testing"

	"streams/internal/tuple"
)

// testOp is a minimal operator for wiring tests.
type testOp struct{ name string }

func (o testOp) Name() string                        { return o.name }
func (o testOp) Process(Submitter, tuple.Tuple, int) {}

// testSrc is a minimal source.
type testSrc struct{ testOp }

func (testSrc) Run(Submitter, <-chan struct{}) {}

func pipeline(t *testing.T, depth int) *Graph {
	t.Helper()
	b := NewBuilder()
	src := b.AddNode(testSrc{testOp{"src"}}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		n := b.AddNode(testOp{"w"}, 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	snk := b.AddNode(testOp{"snk"}, 1, 0)
	b.Connect(prev, 0, snk, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildPipeline(t *testing.T) {
	g := pipeline(t, 5)
	st := g.Stats()
	if st.Nodes != 7 || st.Ports != 6 || st.Streams != 6 || st.Sources != 1 || st.Sinks != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if g.MaxInPorts() != 1 {
		t.Fatalf("MaxInPorts = %d, want 1", g.MaxInPorts())
	}
	// Every port has exactly one producer in a pipeline.
	for _, p := range g.Ports {
		if p.Producers != 1 {
			t.Fatalf("port %d producers = %d", p.ID, p.Producers)
		}
	}
}

func TestBuildFanOutFanIn(t *testing.T) {
	b := NewBuilder()
	src := b.AddNode(testSrc{testOp{"src"}}, 0, 1)
	w1 := b.AddNode(testOp{"w1"}, 1, 1)
	w2 := b.AddNode(testOp{"w2"}, 1, 1)
	snk := b.AddNode(testOp{"snk"}, 1, 0)
	b.Connect(src, 0, w1, 0)
	b.Connect(src, 0, w2, 0) // fan-out: one stream, two subscribers
	b.Connect(w1, 0, snk, 0) // fan-in: two streams, one port
	b.Connect(w2, 0, snk, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	snkPort := g.Ports[g.Nodes[snk].InPorts[0]]
	if snkPort.Producers != 2 {
		t.Fatalf("sink port producers = %d, want 2", snkPort.Producers)
	}
	if got := len(g.Nodes[src].Outs[0]); got != 2 {
		t.Fatalf("source subscribers = %d, want 2", got)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"nil operator", func(b *Builder) {
			b.AddNode(nil, 0, 0)
		}, "nil operator"},
		{"negative ports", func(b *Builder) {
			b.AddNode(testOp{"x"}, -1, 1)
		}, "negative port count"},
		{"unknown node", func(b *Builder) {
			b.AddNode(testSrc{testOp{"s"}}, 0, 1)
			b.Connect(0, 0, 9, 0)
		}, "unknown node"},
		{"bad out port", func(b *Builder) {
			s := b.AddNode(testSrc{testOp{"s"}}, 0, 1)
			k := b.AddNode(testOp{"k"}, 1, 0)
			b.Connect(s, 5, k, 0)
		}, "no output port 5"},
		{"bad in port", func(b *Builder) {
			s := b.AddNode(testSrc{testOp{"s"}}, 0, 1)
			k := b.AddNode(testOp{"k"}, 1, 0)
			b.Connect(s, 0, k, 3)
		}, "no input port 3"},
		{"source without Source impl", func(b *Builder) {
			s := b.AddNode(testOp{"notasource"}, 0, 1)
			k := b.AddNode(testOp{"k"}, 1, 0)
			b.Connect(s, 0, k, 0)
		}, "does not implement Source"},
		{"unconnected input", func(b *Builder) {
			b.AddNode(testSrc{testOp{"s"}}, 0, 0)
			b.AddNode(testOp{"k"}, 1, 0)
		}, "has no producers"},
		{"unconnected output", func(b *Builder) {
			b.AddNode(testSrc{testOp{"s"}}, 0, 1)
		}, "has no subscribers"},
		{"no sources", func(b *Builder) {
			a := b.AddNode(testOp{"a"}, 1, 1)
			c := b.AddNode(testOp{"c"}, 1, 1)
			b.Connect(a, 0, c, 0)
			b.Connect(c, 0, a, 0)
		}, "no source nodes"},
		{"cycle", func(b *Builder) {
			s := b.AddNode(testSrc{testOp{"s"}}, 0, 1)
			a := b.AddNode(testOp{"a"}, 1, 1)
			c := b.AddNode(testOp{"c"}, 2, 1)
			b.Connect(s, 0, c, 0)
			b.Connect(c, 0, a, 0)
			b.Connect(a, 0, c, 1)
		}, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestTopoOrder(t *testing.T) {
	g := pipeline(t, 10)
	order := g.TopoOrder()
	if len(order) != len(g.Nodes) {
		t.Fatalf("TopoOrder returned %d nodes, want %d", len(order), len(g.Nodes))
	}
	pos := make([]int, len(g.Nodes))
	for i, n := range order {
		pos[n] = i
	}
	for n := range g.Nodes {
		for _, s := range g.succ(n) {
			if pos[n] >= pos[s] {
				t.Fatalf("node %d not before successor %d", n, s)
			}
		}
	}
}

func TestDot(t *testing.T) {
	g := pipeline(t, 1)
	dot := g.Dot()
	for _, want := range []string{"digraph stream", `label="src"`, "n0 -> n1", "n1 -> n2"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("Dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestMaxInPorts(t *testing.T) {
	b := NewBuilder()
	s := b.AddNode(testSrc{testOp{"s"}}, 0, 3)
	j := b.AddNode(testOp{"join"}, 3, 0)
	for i := 0; i < 3; i++ {
		b.Connect(s, i, j, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxInPorts() != 3 {
		t.Fatalf("MaxInPorts = %d, want 3", g.MaxInPorts())
	}
}

func TestLargePipelineBuild(t *testing.T) {
	g := pipeline(t, 1000)
	if len(g.Nodes) != 1002 || len(g.Ports) != 1001 {
		t.Fatalf("got %d nodes, %d ports", len(g.Nodes), len(g.Ports))
	}
}

// TestChainable pins the static chain analysis: a port is a chain
// target iff its operator has exactly one input port and no stream
// feeding it fans out to sibling subscribers. Fan-in of non-fanned
// streams stays chainable (the consumer lock still serializes the
// node); fan-out poisons every subscriber port; multi-input operators
// are never chainable.
func TestChainable(t *testing.T) {
	b := NewBuilder()
	src := b.AddNode(testSrc{testOp{"src"}}, 0, 2)
	w1 := b.AddNode(testOp{"w1"}, 1, 1) // plain pipeline hop: chainable
	fo1 := b.AddNode(testOp{"fo1"}, 1, 1)
	fo2 := b.AddNode(testOp{"fo2"}, 1, 1)
	fanin := b.AddNode(testOp{"fanin"}, 1, 1) // two non-fanned streams, one port
	join := b.AddNode(testOp{"join"}, 2, 0)   // two input ports
	b.Connect(src, 0, w1, 0)
	b.Connect(src, 1, fo1, 0) // src out 1 fans out to fo1 and fo2
	b.Connect(src, 1, fo2, 0)
	b.Connect(w1, 0, fanin, 0)
	b.Connect(fo1, 0, fanin, 0)
	b.Connect(fo2, 0, join, 0)
	b.Connect(fanin, 0, join, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := map[string]bool{
		"w1":    true,  // single-in, single-subscriber stream
		"fanin": true,  // single-in; both feeding streams are single-subscriber
		"fo1":   false, // fed by a fan-out stream
		"fo2":   false, // fed by a fan-out stream
		"join":  false, // two input ports
	}
	seen := 0
	for _, p := range g.Ports {
		name := p.Node.Op.Name()
		w, ok := want[name]
		if !ok {
			t.Fatalf("unexpected port on %q", name)
		}
		if p.Chainable != w {
			t.Errorf("port of %q chainable = %v, want %v", name, p.Chainable, w)
		}
		seen++
	}
	if seen != 6 { // join has two ports
		t.Fatalf("saw %d ports, want 6", seen)
	}
	if st := g.Stats(); st.Chainable != 2 {
		t.Fatalf("Stats.Chainable = %d, want 2", st.Chainable)
	}
}

// loopSub records Submit calls; batchSub also takes batches and counts
// them.
type loopSub struct {
	got   []tuple.Tuple
	ports []int
}

func (l *loopSub) Submit(t tuple.Tuple, port int) {
	l.got = append(l.got, t)
	l.ports = append(l.ports, port)
}

type batchSub struct {
	loopSub
	batches int
}

func (b *batchSub) SubmitBatch(ts []tuple.Tuple, port int) {
	b.batches++
	for _, t := range ts {
		b.Submit(t, port)
	}
}

// TestSubmitBatchHelper: the helper hands a BatchSubmitter the slice in
// one call and falls back to an in-order Submit loop for anything else,
// so a source written against it behaves the same under every model.
func TestSubmitBatchHelper(t *testing.T) {
	ts := []tuple.Tuple{tuple.NewData(1), tuple.Window(), tuple.NewData(2)}
	var plain loopSub
	SubmitBatch(&plain, ts, 3)
	var batched batchSub
	SubmitBatch(&batched, ts, 3)
	SubmitBatch(&batched, nil, 3)
	if batched.batches != 2 {
		t.Fatalf("BatchSubmitter saw %d SubmitBatch calls, want 2", batched.batches)
	}
	for _, got := range []*loopSub{&plain, &batched.loopSub} {
		if len(got.got) != len(ts) {
			t.Fatalf("delivered %d tuples, want %d", len(got.got), len(ts))
		}
		for i := range ts {
			if got.got[i].Kind != ts[i].Kind || got.got[i].Words != ts[i].Words || got.ports[i] != 3 {
				t.Fatalf("position %d: got %v on port %d", i, got.got[i], got.ports[i])
			}
		}
	}
}

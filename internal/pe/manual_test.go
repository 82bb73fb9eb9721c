package pe

import (
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// idleSource is a source whose tuples the test submits by hand.
type idleSource struct{}

func (idleSource) Name() string                              { return "Idle" }
func (idleSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (idleSource) Run(graph.Submitter, <-chan struct{})      {}

// TestManualSubmitZeroAlloc pins the manual model's per-tuple cost: a
// source tuple crossing a 5-hop pipeline (4 forwarding operators and a
// sink) allocates nothing — the contexts every hop hands to operator
// code are built with the runner, not per call.
func TestManualSubmitZeroAlloc(t *testing.T) {
	b := graph.NewBuilder()
	prev := b.AddNode(idleSource{}, 0, 1)
	forward := func(out graph.Submitter, t tuple.Tuple, _ int) { out.Submit(t, 0) }
	for i := 0; i < 4; i++ {
		n := b.AddNode(&ops.Custom{Fn: forward}, 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(prev, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Config{Model: Manual})
	if err != nil {
		t.Fatal(err)
	}
	out := p.runner.sourceSubmitter(0)
	tp := tuple.NewData(1)
	if avg := testing.AllocsPerRun(1000, func() { out.Submit(tp, 0) }); avg != 0 {
		t.Errorf("a source tuple allocates %.2f times crossing 5 manual hops, want 0", avg)
	}
	if snk.Count() == 0 || p.Executed() != 5*snk.Count() {
		t.Errorf("sink saw %d tuples and the PE executed %d, want 5 executions per tuple", snk.Count(), p.Executed())
	}
}

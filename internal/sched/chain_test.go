package sched

import (
	"fmt"
	"sync"
	"testing"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// TestChainFiresOnPipeline proves the inline chain path actually runs on
// the topology it was built for: a straight pipeline, where every
// interior port is chainable. The meters must show chain sequences,
// links and bypassed tuples, and every stop reason must stay consistent
// with the budgets (links per start never exceeds chainDepth — that is
// what DepthStops exists to enforce).
func TestChainFiresOnPipeline(t *testing.T) {
	const n = 20000
	snk := &ops.Sink{}
	g := pipelineGraph(t, 20, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4}, 2)
	if got := snk.Count(); got != n {
		t.Fatalf("sink saw %d tuples, want %d", got, n)
	}
	ch := s.Stats().Chain
	if ch.Starts == 0 || ch.Links == 0 || ch.Tuples == 0 {
		t.Fatalf("chain never fired on a 20-deep pipeline: %+v", ch)
	}
	if ch.Links < ch.Starts {
		t.Errorf("links %d < starts %d: every start is itself a link", ch.Links, ch.Starts)
	}
	if ch.Tuples < ch.Links {
		t.Errorf("tuples %d < links %d: every link moves at least one tuple", ch.Tuples, ch.Links)
	}
}

// TestChainDisabledMetersZero: on a graph the chain path can never
// enter — every stream tapped, so no port is chainable — chaining must
// be fully off: correct delivery, correct order, and not a single chain
// or fused-run meter moved.
func TestChainDisabledMetersZero(t *testing.T) {
	const n = 10000
	t.Run("disable-chain", func(t *testing.T) {
		var mu sync.Mutex
		var seen []uint64
		snk := newOrderSink(&mu, &seen)
		g := tappedPipelineGraph(t, 15, 0, n, snk)
		s := runGraph(t, g, Config{MaxThreads: 4}, 2)
		requireInOrder(t, seen, n)
		if ch := s.Stats().Chain; ch != (metrics.ChainSnapshot{}) {
			t.Fatalf("chain meters moved with no chainable port: %+v", ch)
		}
		if v := s.Stats().VM; v.FusedRuns != 0 || v.Fallbacks != 0 {
			t.Fatalf("fused-run meters moved with no chainable port: %+v", v)
		}
	})
}

// TestChainPipelineFIFOProperty sweeps chain depths and queue capacities
// over a deep pipeline and requires strict global order at the sink: on
// a single-stream pipeline, per-stream FIFO is total order, so any
// chain link that overtook a queued tuple would show up as an
// inversion. Depths below the scheduler's chainDepth come from the
// shape: tapped streams break the pipeline into chainable runs of at
// most that many links. Small queue capacities force the mixed regime
// where some flushes chain and others fall back through
// PushN/reSchedule.
func TestChainPipelineFIFOProperty(t *testing.T) {
	const n = 15000
	for _, depth := range []int{1, 3, chainDepth} {
		for _, qcap := range []int{4, 16} {
			t.Run(fmt.Sprintf("chaindepth=%d/qcap=%d", depth, qcap), func(t *testing.T) {
				var mu sync.Mutex
				var seen []uint64
				snk := newOrderSink(&mu, &seen)
				g := pipelineGraph(t, 30, n, snk)
				if depth < chainDepth {
					g = tappedPipelineGraph(t, 30, depth, n, snk)
				}
				s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: qcap}, 3)
				requireInOrder(t, seen, n)
				ch := s.Stats().Chain
				if ch.Links == 0 {
					t.Errorf("chain never fired at depth %d", depth)
				}
				if depth < chainDepth && ch.DepthStops != 0 {
					t.Errorf("DepthStops = %d with chainable runs of at most %d links", ch.DepthStops, depth)
				}
			})
		}
	}
}

// punctCounter forwards data tuples and records, at every window mark,
// how many data tuples it has seen so far. Its input port is single-
// input, so the scheduler serializes Process and OnPunct under the
// port's consumer lock and the recorded counts need no cross-call
// ordering caveats.
type punctCounter struct {
	name string
	mu   sync.Mutex
	data uint64
	at   []uint64 // data count observed at each window mark, in order
}

func (p *punctCounter) Name() string { return p.name }

func (p *punctCounter) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	p.mu.Lock()
	p.data++
	p.mu.Unlock()
	out.Submit(t, 0)
}

func (p *punctCounter) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	if k != tuple.WindowMark {
		return
	}
	p.mu.Lock()
	p.at = append(p.at, p.data)
	p.mu.Unlock()
}

// markedSource emits `windows` rounds of `per` data tuples followed by
// one window mark.
type markedSource struct {
	windows, per int
}

func (m *markedSource) Name() string                              { return "markedSrc" }
func (m *markedSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (m *markedSource) Run(out graph.Submitter, stop <-chan struct{}) {
	w := uint64(0)
	for i := 0; i < m.windows; i++ {
		for j := 0; j < m.per; j++ {
			out.Submit(tuple.NewData(w), 0)
			w++
		}
		out.Submit(tuple.Window(), 0)
	}
}

// TestChainPunctuationOrdering: window marks must stay in position
// relative to the data tuples around them while chaining is active. Two
// observers — one mid-pipeline (reached through chained links) and one
// just before the sink — must each see exactly per×k data tuples ahead
// of the k-th mark.
func TestChainPunctuationOrdering(t *testing.T) {
	const windows, per = 400, 7
	b := graph.NewBuilder()
	src := b.AddNode(&markedSource{windows: windows, per: per}, 0, 1)
	prev := src
	mid := &punctCounter{name: "Mid"}
	late := &punctCounter{name: "Late"}
	for i := 0; i < 8; i++ {
		var n int
		switch i {
		case 3:
			n = b.AddNode(mid, 1, 1)
		case 7:
			n = b.AddNode(late, 1, 1)
		default:
			n = b.AddNode(&ops.Worker{}, 1, 1)
		}
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
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 8}, 2)
	if got := snk.Count(); got != windows*per {
		t.Fatalf("sink saw %d tuples, want %d", got, windows*per)
	}
	if ch := s.Stats().Chain; ch.Links == 0 {
		t.Error("chain never fired; the punctuation property was not exercised")
	}
	for _, obs := range []*punctCounter{mid, late} {
		obs.mu.Lock()
		at := obs.at
		obs.mu.Unlock()
		if len(at) != windows {
			t.Fatalf("%s observed %d window marks, want %d", obs.name, len(at), windows)
		}
		for k, got := range at {
			if want := uint64((k + 1) * per); got != want {
				t.Fatalf("%s: mark %d arrived after %d data tuples, want %d (mark out of position)",
					obs.name, k, got, want)
			}
		}
	}
}

// mixedGraph builds the fan-out/fan-in topology the chaos sweeps use:
// src → round-robin split → width parallel pipelines of the given depth
// → one shared sink (width producers on its port).
func mixedGraph(t *testing.T, width, depth int, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	split := b.AddNode(&ops.RoundRobinSplit{Width: width}, 1, width)
	b.Connect(src, 0, split, 0)
	sn := b.AddNode(snk, 1, 0)
	for w := 0; w < width; w++ {
		prev, prevPort := split, w
		for d := 0; d < depth; d++ {
			n := b.AddNode(&ops.Worker{}, 1, 1)
			b.Connect(prev, prevPort, n, 0)
			prev, prevPort = n, 0
		}
		b.Connect(prev, prevPort, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChainMixedTopologyFIFO: on the fan-out/fan-in topology, global
// order across branches is unspecified but per-stream FIFO must hold —
// the round-robin split sends tuple i down branch i%width, so the
// sink-side subsequence of each residue class must arrive in increasing
// order even while branch interiors execute through chained links.
func TestChainMixedTopologyFIFO(t *testing.T) {
	const n, width = 20000, 4
	var mu sync.Mutex
	var seen []uint64
	snk := newOrderSink(&mu, &seen)
	g := mixedGraph(t, width, 5, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4, QueueCap: 8}, 3)
	if len(seen) != n {
		t.Fatalf("saw %d tuples, want %d", len(seen), n)
	}
	last := make(map[uint64]uint64, width)
	for i, v := range seen {
		branch := v % width
		if prev, ok := last[branch]; ok && v <= prev {
			t.Fatalf("position %d: branch %d tuple %d arrived after %d (per-stream FIFO broken)",
				i, branch, v, prev)
		}
		last[branch] = v
	}
	if ch := s.Stats().Chain; ch.Links == 0 {
		t.Error("chain never fired on the mixed topology's pipeline interiors")
	}
}

// TestChainChaosConservation runs the pipeline and mixed topologies with
// seeded chaos panics while chaining is active: every generated tuple
// must be delivered or dead-lettered, never lost or duplicated, across
// several injector seeds.
func TestChainChaosConservation(t *testing.T) {
	const n = 12000
	for _, seed := range []uint64{7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("pipeline/seed=%d", seed), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: seed, PanicRate: 0.005})
			snk := &ops.Sink{}
			g := pipelineGraph(t, 10, n, snk)
			s := runGraph(t, g, Config{MaxThreads: 4, Fault: inj, QuarantineAfter: 1 << 30}, 2)
			fs := s.Faults()
			if fs.OpPanics == 0 {
				t.Fatal("injector never fired")
			}
			if got := snk.Count() + fs.DeadLetters; got != n {
				t.Errorf("delivered %d + dead-lettered %d = %d, want %d",
					snk.Count(), fs.DeadLetters, got, n)
			}
		})
		t.Run(fmt.Sprintf("mixed/seed=%d", seed), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: seed, PanicRate: 0.005})
			snk := &ops.Sink{}
			g := mixedGraph(t, 4, 5, n, snk)
			s := runGraph(t, g, Config{MaxThreads: 4, Fault: inj, QuarantineAfter: 1 << 30}, 3)
			fs := s.Faults()
			if fs.OpPanics == 0 {
				t.Fatal("injector never fired")
			}
			if got := snk.Count() + fs.DeadLetters; got != n {
				t.Errorf("delivered %d + dead-lettered %d = %d, want %d",
					snk.Count(), fs.DeadLetters, got, n)
			}
		})
	}
}

// TestQuarantineMidChain: an operator that panics on every tuple sits in
// the middle of a pipeline whose links are being executed inline. Every
// panic therefore fires inside a chained frame, and containment must
// behave exactly as on the queue path: the offending tuple is
// dead-lettered, the operator is quarantined at the strike budget, the
// upstream frame is not unwound (the upstream operator still executes
// every tuple), and final punctuation still drains the PE.
func TestQuarantineMidChain(t *testing.T) {
	const n = 8000
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	up := b.AddNode(&ops.Custom{OpName: "Up", Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		out.Submit(tp, 0)
	}}, 1, 1)
	bad := b.AddNode(&panicky{name: "Bad", panicOn: func(uint64) bool { return true }}, 1, 1)
	down := b.AddNode(&ops.Worker{}, 1, 1)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, up, 0)
	b.Connect(up, 0, bad, 0)
	b.Connect(bad, 0, down, 0)
	b.Connect(down, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runGraph(t, g, Config{MaxThreads: 4, QuarantineAfter: 3}, 2)

	if ch := s.Stats().Chain; ch.Links == 0 {
		t.Error("chain never fired; the panics did not land inside chained frames")
	}
	fs := s.Faults()
	if fs.OpPanics != 3 {
		t.Errorf("OpPanics = %d, want 3 (quarantined at the strike budget)", fs.OpPanics)
	}
	if fs.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", fs.Quarantines)
	}
	if !s.Quarantined(bad) {
		t.Error("Bad not quarantined")
	}
	if fs.DeadLetters != n {
		t.Errorf("DeadLetters = %d, want %d (every tuple dies at Bad)", fs.DeadLetters, n)
	}
	// The upstream span survived every mid-chain panic: Up executed all
	// n tuples and nothing leaked past Bad.
	counts := s.OperatorCounts()
	if counts["Up"] != n {
		t.Errorf("upstream executed %d tuples, want %d (upstream span corrupted)", counts["Up"], n)
	}
	if counts["Worker"] != 0 || snk.Count() != 0 {
		t.Errorf("downstream saw %d/%d tuples, want 0/0", counts["Worker"], snk.Count())
	}
	if got, want := s.Executed(), uint64(n); got != want {
		t.Errorf("Executed = %d, want %d (only Up completes)", got, want)
	}
}

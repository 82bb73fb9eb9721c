package sched

import (
	"sync"
	"testing"

	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
)

// TestAblationsPreserveCorrectness runs a pipeline under every departure
// from the default free structure or dispatch that is still reachable:
// the paper's global free list (the one remaining switch), and shapes
// that take chaining away or leave the shards tiny next to the graph —
// one thread's 256-hint shard under 283 ports, so hints must spill. A
// different design may cost performance but must never lose tuples or
// break stream order.
func TestAblationsPreserveCorrectness(t *testing.T) {
	type build func(t *testing.T, n uint64, snk *ops.Sink) *graph.Graph
	pipeline := func(t *testing.T, n uint64, snk *ops.Sink) *graph.Graph { return pipelineGraph(t, 25, n, snk) }
	tapped := func(maxRun int) build {
		return func(t *testing.T, n uint64, snk *ops.Sink) *graph.Graph {
			return tappedPipelineGraph(t, 25, maxRun, n, snk)
		}
	}
	fanned := func(t *testing.T, n uint64, snk *ops.Sink) *graph.Graph {
		return fannedPipelineGraph(t, 25, maxShardHints+1, n, snk)
	}
	cases := map[string]struct {
		cfg     Config
		build   build
		n       int
		noChain bool // no port is chainable: the chain meters stay zero
		spill   bool // the hints outnumber the shards: Spill must move
	}{
		"global-free-list": {Config{MaxThreads: 4, QueueCap: 8, GlobalFreeList: true}, pipeline, 8000, false, false},
		"tiny-shards":      {Config{MaxThreads: 1, QueueCap: 8}, fanned, 2000, false, true},
		"no-chain":         {Config{MaxThreads: 4, QueueCap: 8}, tapped(0), 8000, true, false},
		"chain-depth-1":    {Config{MaxThreads: 4, QueueCap: 8}, tapped(1), 8000, false, false},
		"all-reversed":     {Config{MaxThreads: 4, QueueCap: 8, GlobalFreeList: true}, tapped(0), 8000, true, false},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var seen []uint64
			s := runGraph(t, c.build(t, uint64(c.n), newOrderSink(&mu, &seen)), c.cfg, 3)
			requireInOrder(t, seen, c.n)
			if ch := s.Stats().Chain; c.noChain && ch != (metrics.ChainSnapshot{}) {
				t.Errorf("chain meters moved on a graph with no chainable port: %+v", ch)
			}
			if c.spill && s.Stats().Contention.Spill == 0 {
				t.Errorf("%d ports over one %d-hint shard produced no spills", len(s.g.Ports), maxShardHints)
			}
		})
	}
}

// fannedPipelineGraph is pipelineGraph with the source stream also fed to
// `taps` sinks. A stream with several subscribers is never chainable, so
// a thread reaches each of those ports through its hint, and every hint
// it has taken returns to its own shard: more taps than a shard holds
// must spill.
func fannedPipelineGraph(t *testing.T, depth, taps int, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	for i := 0; i < taps; i++ {
		b.Connect(src, 0, b.AddNode(&ops.Sink{OpName: "Tap"}, 1, 0), 0)
	}
	prev := src
	for i := 0; i < depth; i++ {
		w := b.AddNode(&ops.Worker{}, 1, 1)
		b.Connect(prev, 0, w, 0)
		prev = w
	}
	b.Connect(prev, 0, b.AddNode(snk, 1, 0), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

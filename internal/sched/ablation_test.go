package sched

import (
	"sync"
	"testing"
)

// TestAblationsPreserveCorrectness runs the same pipeline under every
// configuration that departs from the default free structure or
// dispatch: a different design may cost performance but must never lose
// tuples or break stream order.
func TestAblationsPreserveCorrectness(t *testing.T) {
	cases := map[string]Config{
		"global-free-list": {MaxThreads: 4, QueueCap: 8, GlobalFreeList: true},
		"tiny-shards":      {MaxThreads: 4, QueueCap: 8, ShardCap: 2},
		"no-chain":         {MaxThreads: 4, QueueCap: 8, DisableChain: true},
		"chain-depth-1":    {MaxThreads: 4, QueueCap: 8, ChainDepth: 1},
		"all-reversed": {
			MaxThreads: 4, QueueCap: 8,
			GlobalFreeList: true, DisableChain: true,
		},
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) { checkAblatedPipeline(t, cfg) })
	}
}

// checkAblatedPipeline drains an 8000-tuple, 25-stage pipeline under cfg
// (within runGraph's 30 s bound) and requires every tuple at the sink, in
// order.
func checkAblatedPipeline(t *testing.T, cfg Config) {
	const n = 8000
	var mu sync.Mutex
	var seen []uint64
	snk := newOrderSink(&mu, &seen)
	g := pipelineGraph(t, 25, n, snk)
	runGraph(t, g, cfg, 3)
	if len(seen) != n {
		t.Fatalf("saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
}

package sched

import (
	"runtime"
	"sync"
	"testing"
)

// TestAblationsPreserveCorrectness runs the same pipeline under every
// ablation configuration: reversing a design decision may cost
// performance but must never lose tuples or break stream order.
func TestAblationsPreserveCorrectness(t *testing.T) {
	cases := map[string]Config{
		"retry-on-contention": {MaxThreads: 4, QueueCap: 8, RetryOnContention: true},
		"block-on-full-queue": {MaxThreads: 4, QueueCap: 4, BlockOnFullQueue: true},
		"shared-stop-flags":   {MaxThreads: 4, QueueCap: 8, SharedStopFlags: true},
		"free-list-lifo":      {MaxThreads: 4, QueueCap: 8, FreeListLIFO: true},
		"global-free-list":    {MaxThreads: 4, QueueCap: 8, GlobalFreeList: true},
		"tiny-shards":         {MaxThreads: 4, QueueCap: 8, ShardCap: 2},
		"no-chain":            {MaxThreads: 4, QueueCap: 8, DisableChain: true},
		"chain-depth-1":       {MaxThreads: 4, QueueCap: 8, ChainDepth: 1},
		"all-reversed": {
			MaxThreads: 4, QueueCap: 8,
			RetryOnContention: true, BlockOnFullQueue: true,
			SharedStopFlags: true, FreeListLIFO: true, GlobalFreeList: true,
			DisableChain: true,
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

// TestBlockingAblationDrainsOnTwoCores is the regression test for the
// BlockOnFullQueue escape hatch: with FreeListLIFO every thread ends up a
// blocked producer holding the consumer lock its neighbour waits behind,
// so the pipeline only moves when a blocked push gives up and self-helps.
// The wait used to be 64 back-off steps — half a second at the 10 ms cap
// — and to repeat at every level of the self-help recursion, which on a
// 2-core host did not drain 8000 tuples in 30 s. It is now bounded to
// blockOnFullAttempts steps and skipped inside self-help frames.
func TestBlockingAblationDrainsOnTwoCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for name, cfg := range map[string]Config{
		"block+lifo": {MaxThreads: 4, QueueCap: 8, BlockOnFullQueue: true, FreeListLIFO: true},
		"all-reversed": {
			MaxThreads: 4, QueueCap: 8,
			RetryOnContention: true, BlockOnFullQueue: true,
			SharedStopFlags: true, FreeListLIFO: true, GlobalFreeList: true,
			DisableChain: true,
		},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) { checkAblatedPipeline(t, cfg) })
	}
}

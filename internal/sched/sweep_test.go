package sched

import (
	"fmt"
	"runtime"
	"testing"

	"streams/internal/ops"
)

// TestConfigSweepDrains is the "accepted by New ⇒ drains" property over
// what Config still varies: every queue capacity class (1 makes every
// push contend, 64 holds two full batches), both free-list designs, one to
// three scheduler threads, three topologies — a depth-8 pipeline, a
// 20-wide two-deep fan-out wider than the slot table (maxSlots), and a
// 3×3 grid — and GOMAXPROCS 1 and 2. Every cell must deliver exactly its
// tuple count at the sink within its own deadline (drainScheduler's),
// and its free structures must hold every port hint exactly once after
// New and at most once after the drain.
func TestConfigSweepDrains(t *testing.T) {
	const n = 2000
	topos := []struct {
		name string
		topo ops.Topology
	}{
		{"pipeline-8", ops.Topology{Width: 1, Depth: 8}},
		{"fanout-20x2", ops.Topology{Width: 20, Depth: 2}},
		{"grid-3x3", ops.Topology{Width: 3, Depth: 3}},
	}
	if topos[1].topo.Width <= maxSlots {
		t.Fatalf("fan-out %d no wider than maxSlots %d", topos[1].topo.Width, maxSlots)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, qcap := range []int{1, 2, 4, 64} {
			for _, global := range []bool{false, true} {
				for threads := 1; threads <= 3; threads++ {
					for _, tp := range topos {
						name := fmt.Sprintf("procs=%d/qcap=%d/global=%v/threads=%d/%s", procs, qcap, global, threads, tp.name)
						t.Run(name, func(t *testing.T) {
							topo := tp.topo
							topo.Limit = n
							g, snk, err := topo.Build()
							if err != nil {
								t.Fatal(err)
							}
							s := New(g, Config{QueueCap: qcap, MaxThreads: threads, GlobalFreeList: global})
							if err := checkHintConservation(s, true); err != nil {
								t.Fatalf("after New: %v", err)
							}
							drainScheduler(t, s, threads)
							if got := snk.Count(); got != n {
								t.Fatalf("sink saw %d tuples, want %d", got, n)
							}
							if err := checkHintConservation(s, false); err != nil {
								t.Fatalf("after the drain: %v", err)
							}
						})
					}
				}
			}
		}
	}
}

package sched

import (
	"fmt"
	"sync"
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
)

// freeListBenchGraph builds a graph with exactly nPorts input ports
// (one source fanning out to nPorts sinks) for free-list benchmarks.
// The scheduler is never started and no tuples flow: the benchmarks
// exercise only the free-structure hint movement.
func freeListBenchGraph(b *testing.B, nPorts int) *graph.Graph {
	b.Helper()
	gb := graph.NewBuilder()
	src := gb.AddNode(&ops.Generator{Limit: 1}, 0, nPorts)
	for i := 0; i < nPorts; i++ {
		sn := gb.AddNode(&ops.Sink{}, 1, 0)
		gb.Connect(src, i, sn, 0)
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFreeListContention measures one free-structure hint cycle —
// obtain a port hint, return it — per iteration, across a sweep of
// worker counts and port counts, for both designs:
//
//   - global: every cycle pops and pushes the shared Vyukov MPMC list
//     (two CASes on shared cache lines).
//   - sharded: every cycle pops and pushes the worker's own deque
//     (plain atomic load/store, no CAS, no shared lines), falling back
//     to stealing and the global list exactly as findWorkSharded does.
//
// This is the microbenchmark behind the tentpole claim: the sharded
// list must beat the global list from 4 workers up (and should already
// win at 1, having removed the CASes from the common path).
func BenchmarkFreeListContention(b *testing.B) {
	for _, impl := range []string{"global", "sharded"} {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, ports := range []int{16, 256} {
				name := fmt.Sprintf("%s/threads=%d/ports=%d", impl, threads, ports)
				b.Run(name, func(b *testing.B) {
					g := freeListBenchGraph(b, ports)
					s := New(g, Config{
						MaxThreads:     threads,
						GlobalFreeList: impl == "global",
					})
					b.ResetTimer()
					var wg sync.WaitGroup
					for w := 0; w < threads; w++ {
						n := b.N / threads
						if w < b.N%threads {
							n++
						}
						wg.Add(1)
						go func(w, n int) {
							defer wg.Done()
							if s.useShards {
								benchShardedCycles(s, s.threads[w], n)
							} else {
								benchGlobalCycles(s, w, n)
							}
						}(w, n)
					}
					wg.Wait()
				})
			}
		}
	}
}

// benchGlobalCycles runs n pop/push cycles against the global list.
func benchGlobalCycles(s *Scheduler, tid, n int) {
	var port int32
	for i := 0; i < n; i++ {
		for !s.popFree(&port, tid) {
		}
		s.pushGlobalFree(port, tid)
	}
}

// benchShardedCycles runs n hint cycles through the sharded structure
// with findWorkSharded's fallback order: own shard, steal, global.
func benchShardedCycles(s *Scheduler, thr *Thread, n int) {
	var port int32
	for i := 0; i < n; i++ {
		for !shardedObtain(s, thr, &port) {
		}
		s.makePortFree(port, thr)
	}
}

func shardedObtain(s *Scheduler, thr *Thread, port *int32) bool {
	if thr.shard.PopBottom(port) {
		return true
	}
	nsh := len(s.shards)
	off := int(thr.nextRand() % uint32(nsh))
	for i := 0; i < nsh; i++ {
		v := off + i
		if v >= nsh {
			v -= nsh
		}
		if v != thr.id && s.shards[v].Steal(port) {
			return true
		}
	}
	return s.popFree(port, thr.id)
}

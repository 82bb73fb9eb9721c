package fuse

import (
	"os"
	"sync"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

func pipelineGraph(t *testing.T, depth int, limit uint64) (*graph.Graph, *ops.Sink) {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		w := b.AddNode(&ops.Worker{Cost: 10}, 1, 1)
		b.Connect(prev, 0, w, 0)
		prev = w
	}
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(prev, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, snk
}

func waitDeployment(t *testing.T, d *Deployment) {
	t.Helper()
	done := make(chan struct{})
	go func() { d.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deployment did not drain")
	}
}

// TestPipelineSplitAcrossPEs fuses a pipeline into several PEs and
// checks full, in-order delivery through every TCP boundary.
func TestPipelineSplitAcrossPEs(t *testing.T) {
	const n = 15000
	for _, parts := range []int{1, 2, 3, 5} {
		parts := parts
		t.Run(map[int]string{1: "one", 2: "two", 3: "three", 5: "five"}[parts], func(t *testing.T) {
			g, snk := pipelineGraph(t, 9, n)
			var mu sync.Mutex
			var seen []uint64
			snk.OnTuple = func(tp tuple.Tuple) {
				mu.Lock()
				seen = append(seen, tp.Words[0])
				mu.Unlock()
			}
			d, err := Plan(g, parts, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(d.PEs) != parts {
				t.Fatalf("planned %d PEs, want %d", len(d.PEs), parts)
			}
			if wantCuts := parts - 1; len(d.Exports) != wantCuts || len(d.Imports) != wantCuts {
				t.Fatalf("%d exports / %d imports, want %d", len(d.Exports), len(d.Imports), wantCuts)
			}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			waitDeployment(t, d)
			if err := d.Err(); err != nil {
				t.Fatalf("transport error: %v", err)
			}
			if snk.Count() != n {
				t.Fatalf("sink saw %d of %d tuples", snk.Count(), n)
			}
			for i, v := range seen {
				if v != uint64(i) {
					t.Fatalf("position %d: tuple %d out of order across %d PEs", i, v, parts)
				}
			}
		})
	}
}

// TestMixedGraphSplit fuses a width-parallel graph whose cut edges fan
// out and back in.
func TestMixedGraphSplit(t *testing.T) {
	const n = 8000
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	split := b.AddNode(&ops.RoundRobinSplit{Width: 4}, 1, 4)
	b.Connect(src, 0, split, 0)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	for w := 0; w < 4; w++ {
		a := b.AddNode(&ops.Worker{Cost: 10}, 1, 1)
		c := b.AddNode(&ops.Worker{Cost: 10}, 1, 1)
		b.Connect(split, w, a, 0)
		b.Connect(a, 0, c, 0)
		b.Connect(c, 0, sn, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Plan(g, 3, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	waitDeployment(t, d)
	if err := d.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if snk.Count() != n {
		t.Fatalf("sink saw %d of %d tuples", snk.Count(), n)
	}
}

// TestStopUnboundedDeployment stops a deployment whose source never
// finishes.
func TestStopUnboundedDeployment(t *testing.T) {
	g, snk := pipelineGraph(t, 6, 0)
	d, err := Plan(g, 2, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for snk.Count() < 500 {
		if time.Now().After(deadline) {
			t.Fatal("no flow across the boundary")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { d.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop hung")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	g, _ := pipelineGraph(t, 2, 1)
	if _, err := Plan(g, 0, pe.Config{}); err == nil {
		t.Fatal("parts 0 accepted")
	}
	// parts beyond the node count clamps rather than failing.
	d, err := Plan(g, 100, pe.Config{Model: pe.Manual})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PEs) != len(g.Nodes) {
		t.Fatalf("clamped to %d PEs, want %d", len(d.PEs), len(g.Nodes))
	}
}

// TestPlanErrorClosesListeners: a configuration pe.New rejects fails
// Plan after the boundary listeners are open; Plan must close them, or a
// long-lived process leaks a socket per cut stream per failed attempt.
// The open descriptors are counted in /proc/self/fd.
func TestPlanErrorClosesListeners(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(fds)
	}
	g, _ := pipelineGraph(t, 5, 1)
	before := openFDs()
	const attempts = 20
	for i := 0; i < attempts; i++ {
		if _, err := Plan(g, 3, pe.Config{QueueCap: 48}); err == nil {
			t.Fatal("Plan accepted QueueCap 48")
		}
	}
	if after := openFDs(); after >= before+attempts {
		t.Fatalf("%d failed Plans left %d descriptors open (%d before)", attempts, after, before)
	}
}

// TestFusionUnderAllModels checks boundary transports work whichever
// threading model executes each PE.
func TestFusionUnderAllModels(t *testing.T) {
	const n = 4000
	for _, model := range []pe.Model{pe.Manual, pe.Dedicated, pe.Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			g, snk := pipelineGraph(t, 5, n)
			d, err := Plan(g, 2, pe.Config{Model: model, Threads: 2, MaxThreads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			waitDeployment(t, d)
			if snk.Count() != n {
				t.Fatalf("%v: sink saw %d of %d", model, snk.Count(), n)
			}
		})
	}
}

package pe

import (
	"sync"
	"testing"
	"time"

	"streams/internal/cpuutil"
	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

func pipelineGraph(t *testing.T, depth int, limit uint64, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		n := b.AddNode(&ops.Worker{}, 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(prev, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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

func runToDrain(t *testing.T, p *PE) {
	t.Helper()
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("PE did not drain in 60s")
	}
}

func TestModelString(t *testing.T) {
	if Manual.String() != "manual" || Dedicated.String() != "dedicated" || Dynamic.String() != "dynamic" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() != "Model(9)" {
		t.Fatal("unknown model formatting wrong")
	}
}

func TestNewValidation(t *testing.T) {
	g := pipelineGraph(t, 1, 1, &ops.Sink{})
	if _, err := New(g, Config{Model: Manual, Elastic: true}); err == nil {
		t.Error("elastic manual accepted")
	}
	for _, model := range []Model{Manual, Dedicated} {
		if _, err := New(g, Config{Model: model, GlobalFreeList: true}); err == nil {
			t.Errorf("%v: GlobalFreeList accepted by a model with no free list", model)
		}
	}
	if _, err := New(g, Config{Threads: -2}); err == nil {
		t.Error("negative threads accepted")
	}
	if _, err := New(g, Config{Model: Model(42)}); err == nil {
		t.Error("unknown model accepted")
	}
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		if _, err := New(g, Config{Model: model, ShutdownTimeout: -time.Second}); err == nil {
			t.Errorf("%v: negative ShutdownTimeout accepted", model)
		}
	}
}

// TestAllModelsDeliverAll runs the same bounded pipeline under all three
// threading models and checks identical delivery counts and ordering.
func TestAllModelsDeliverAll(t *testing.T) {
	const n = 10000
	const depth = 15
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			var mu sync.Mutex
			var seen []uint64
			snk := &ops.Sink{OnTuple: func(tp tuple.Tuple) {
				mu.Lock()
				seen = append(seen, tp.Words[0])
				mu.Unlock()
			}}
			g := pipelineGraph(t, depth, n, snk)
			p, err := New(g, Config{Model: model, Threads: 3, MaxThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			runToDrain(t, p)
			if got := snk.Count(); got != n {
				t.Fatalf("%v: sink saw %d tuples, want %d", model, got, n)
			}
			if got, want := p.Executed(), uint64(n*(depth+1)); got != want {
				t.Fatalf("%v: Executed = %d, want %d", model, got, want)
			}
			for i, v := range seen {
				if v != uint64(i) {
					t.Fatalf("%v: position %d got tuple %d", model, i, v)
				}
			}
		})
	}
}

// TestAllModelsMixedGraph exercises the w×d topology from Fig. 10 at
// small scale under each model.
func TestAllModelsMixedGraph(t *testing.T) {
	const n = 4000
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snk := &ops.Sink{}
			g := mixedGraph(t, 4, 5, n, snk)
			p, err := New(g, Config{Model: model, Threads: 2, MaxThreads: 4, QueueCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			runToDrain(t, p)
			if got := snk.Count(); got != n {
				t.Fatalf("%v: sink saw %d, want %d", model, got, n)
			}
		})
	}
}

func TestLevelReporting(t *testing.T) {
	g := pipelineGraph(t, 3, 100, &ops.Sink{})
	p, err := New(g, Config{Model: Manual})
	if err != nil {
		t.Fatal(err)
	}
	if p.Level() != 0 {
		t.Fatalf("manual level = %d, want 0", p.Level())
	}
	g2 := pipelineGraph(t, 3, 100, &ops.Sink{})
	p2, err := New(g2, Config{Model: Dedicated})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Level() != 4 { // 3 workers + sink
		t.Fatalf("dedicated level = %d, want 4", p2.Level())
	}
}

// TestStopUnboundedRun starts an unbounded source under each model and
// verifies Stop drains and returns.
func TestStopUnboundedRun(t *testing.T) {
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snk := &ops.Sink{}
			g := pipelineGraph(t, 5, 0, snk)
			p, err := New(g, Config{Model: model, Threads: 2, MaxThreads: 2, ShutdownTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(20 * time.Second)
			for snk.Count() < 500 {
				if time.Now().After(deadline) {
					t.Fatalf("%v: tuples did not flow", model)
				}
				time.Sleep(time.Millisecond)
			}
			done := make(chan struct{})
			go func() { p.Stop(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%v: Stop hung", model)
			}
			if err := p.Err(); err != nil {
				t.Fatalf("%v: %v", model, err)
			}
			if snk.Count() == 0 {
				t.Fatalf("%v: nothing delivered", model)
			}
		})
	}
}

// TestElasticAdaptsLevel runs an elastic dynamic PE with a fast adaptation
// period and verifies the controller moves the level and emits trace
// samples.
func TestElasticAdaptsLevel(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 10, 0, snk)
	var mu sync.Mutex
	var samples []Sample
	p, err := New(g, Config{
		Model:       Dynamic,
		Threads:     1,
		Elastic:     true,
		MaxThreads:  4,
		AdaptPeriod: 30 * time.Millisecond,
		CPUUsage:    cpuutil.Fixed(0.1),
		// A stall at a suspension shows up as a missed deadline.
		ShutdownTimeout: 5 * time.Second,
		Trace: func(s Sample) {
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		enough := len(samples) >= 8
		mu.Unlock()
		if enough {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("not enough adaptation samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	levelChanged := false
	for _, s := range samples {
		if s.Level != samples[0].Level {
			levelChanged = true
		}
		if s.Throughput < 0 {
			t.Fatalf("negative throughput sample %+v", s)
		}
	}
	if !levelChanged {
		t.Fatalf("elastic controller never changed level: %+v", samples)
	}
	if snk.Count() == 0 {
		t.Fatal("no tuples delivered during elastic run")
	}
}

// TestElasticCPUGateHolds verifies a saturated CPU gate pins the level at
// the minimum.
func TestElasticCPUGateHolds(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 5, 0, snk)
	p, err := New(g, Config{
		Model:           Dynamic,
		Threads:         1,
		Elastic:         true,
		MaxThreads:      8,
		AdaptPeriod:     20 * time.Millisecond,
		CPUUsage:        cpuutil.Fixed(0.99),
		ShutdownTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// The deadlock-avoidance floor for this graph is MinLevel = 2 (one
	// input port per operator + 1); the gate must hold the level there.
	if got := p.Level(); got > 2 {
		t.Fatalf("level %d grew despite saturated CPU gate", got)
	}
	p.Stop()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	g := pipelineGraph(t, 2, 10, &ops.Sink{})
	p, err := New(g, Config{Model: Dynamic, Threads: 1, MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
	p.Wait()
}

// TestDynamicWithExplicitSchedConfig plumbs custom scheduler settings
// through the PE's Config.
func TestDynamicWithExplicitSchedConfig(t *testing.T) {
	snk := &ops.Sink{}
	g := pipelineGraph(t, 8, 3000, snk)
	p, err := New(g, Config{
		Model:      Dynamic,
		Threads:    2,
		QueueCap:   4,
		MaxThreads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	runToDrain(t, p)
	if got := snk.Count(); got != 3000 {
		t.Fatalf("sink saw %d, want 3000", got)
	}
}

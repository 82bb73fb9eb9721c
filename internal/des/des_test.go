package des

import (
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
)

// buildTopo materializes one of the evaluation topologies for the DES.
func buildTopo(t *testing.T, width, depth, cost int) (*graph.Graph, func(*graph.Node) int) {
	t.Helper()
	g, _, err := ops.Topology{Width: width, Depth: depth, Cost: cost}.Build()
	if err != nil {
		t.Fatal(err)
	}
	costOf := func(n *graph.Node) int {
		if w, ok := n.Op.(*ops.Worker); ok {
			return w.Cost
		}
		return 0
	}
	return g, costOf
}

func run(t *testing.T, width, depth, cost int, cfg Config) Result {
	t.Helper()
	g, costOf := buildTopo(t, width, depth, cost)
	cfg.CostOf = costOf
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestNewValidation(t *testing.T) {
	g, _ := buildTopo(t, 1, 2, 0)
	if _, err := New(g, Config{Cores: 0, Threads: 1}); err == nil {
		t.Error("Cores 0 accepted")
	}
	if _, err := New(g, Config{Cores: 1, Threads: 0}); err == nil {
		t.Error("Threads 0 accepted")
	}
}

func TestOrderPreservedEverywhere(t *testing.T) {
	configs := []Config{
		{Cores: 1, Threads: 1, Duration: 2e7},
		{Cores: 2, Threads: 2, Duration: 2e7},
		{Cores: 4, Threads: 4, Duration: 2e7, QueueCap: 2},
		{Cores: 2, Threads: 8, Duration: 2e7},
	}
	topos := [][3]int{{1, 20, 10}, {8, 1, 10}, {4, 5, 10}}
	for _, cfg := range configs {
		for _, tp := range topos {
			r := run(t, tp[0], tp[1], tp[2], cfg)
			if r.OrderViolations != 0 {
				t.Fatalf("topo %v cfg %+v: %d order violations", tp, cfg, r.OrderViolations)
			}
			if r.SinkTuples == 0 {
				t.Fatalf("topo %v cfg %+v: no tuples delivered", tp, cfg)
			}
		}
	}
}

// TestWorkConservation checks every executed tuple is accounted: the
// executed count at least path-length times the sink count (in-flight
// tuples make it slightly larger).
func TestWorkConservation(t *testing.T) {
	const depth = 10
	r := run(t, 1, depth, 5, Config{Cores: 2, Threads: 2, Duration: 2e7})
	pathLen := uint64(depth + 1) // workers + sink
	if r.Executed < r.SinkTuples*pathLen {
		t.Fatalf("executed %d < sink %d × path %d", r.Executed, r.SinkTuples, pathLen)
	}
	// In-flight tuples each account for up to pathLen executions; the
	// queue volume bounds how many can be in flight.
	slack := r.Executed - r.SinkTuples*pathLen
	maxInflight := uint64((depth + 1) * 64)
	if slack > maxInflight*pathLen {
		t.Fatalf("unaccounted executions: %d > %d", slack, maxInflight*pathLen)
	}
}

// TestThreadScalingDataParallel verifies the clean scaling regime:
// independent chains scale linearly with threads.
func TestThreadScalingDataParallel(t *testing.T) {
	tput := func(threads int) float64 {
		r := run(t, 8, 4, 200, Config{Cores: 16, Threads: threads, Duration: 5e7})
		return r.SinkThroughput
	}
	t1, t4, t8 := tput(1), tput(4), tput(8)
	if t4 < 3*t1 {
		t.Fatalf("4 threads only %.2fx of 1 thread (%g vs %g)", t4/t1, t4, t1)
	}
	if t8 < 1.7*t4 {
		t.Fatalf("8 threads only %.2fx of 4 threads (%g vs %g)", t8/t4, t8, t4)
	}
}

// TestThreadScalingPipelineSaturated documents the saturated-pipeline
// regime (see package notes): scaling is weak but must not be negative.
func TestThreadScalingPipelineSaturated(t *testing.T) {
	tput := func(threads int) float64 {
		r := run(t, 1, 30, 200, Config{Cores: 16, Threads: threads, Duration: 5e7})
		return r.SinkThroughput
	}
	t1, t12 := tput(1), tput(12)
	if t12 < 1.1*t1 {
		t.Fatalf("12 threads (%g) below 1.1x of 1 thread (%g)", t12, t1)
	}
}

// TestThreadScalingUnsaturatedPipeline: a source slower than capacity
// keeps queues shallow, and thread scaling reappears until the source
// binds.
func TestThreadScalingUnsaturatedPipeline(t *testing.T) {
	tput := func(threads int) float64 {
		g, costOf := buildTopo(t, 1, 30, 200)
		c := DefaultCosts()
		c.SourceNs = 1000 // ~1µs per generated tuple
		s, err := New(g, Config{Cores: 16, Threads: threads, Duration: 5e7, Costs: c, CostOf: costOf})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run().SinkThroughput
	}
	t1, t8 := tput(1), tput(8)
	if t8 < 2.5*t1 {
		t.Fatalf("8 threads only %.2fx of 1 thread (%g vs %g)", t8/t1, t8, t1)
	}
}

// TestCoreCap verifies threads beyond the hardware contexts do not help:
// the machine, not the thread count, is the limit.
func TestCoreCap(t *testing.T) {
	// Cores must cover threads + the source thread for the base case.
	base := run(t, 1, 30, 200, Config{Cores: 3, Threads: 2, Duration: 5e7})
	over := run(t, 1, 30, 200, Config{Cores: 3, Threads: 16, Duration: 5e7})
	if over.SinkThroughput > 1.5*base.SinkThroughput {
		t.Fatalf("16 threads on 2 cores (%.3g) should not beat 2 threads (%.3g) by >1.5x",
			over.SinkThroughput, base.SinkThroughput)
	}
	if over.CtxSwitches == 0 {
		t.Fatal("oversubscribed run recorded no context switches")
	}
	if base.CtxSwitches != 0 {
		t.Fatalf("non-oversubscribed run recorded %d context switches", base.CtxSwitches)
	}
}

// TestRescheduleUnderBackpressure forces full queues and checks the
// self-help path engages without losing order.
func TestRescheduleUnderBackpressure(t *testing.T) {
	r := run(t, 1, 20, 500, Config{Cores: 2, Threads: 2, Duration: 2e7, QueueCap: 2})
	if r.Reschedules == 0 {
		t.Fatal("capacity-2 queues did not trigger reSchedule")
	}
	if r.OrderViolations != 0 {
		t.Fatalf("%d order violations under backpressure", r.OrderViolations)
	}
}

// TestNoStarvation: every port that receives tuples eventually executes
// some — the LRU-ish free-list walk must not starve ports.
func TestNoStarvation(t *testing.T) {
	r := run(t, 16, 2, 20, Config{Cores: 4, Threads: 4, Duration: 5e7})
	if r.PortStarved != 0 {
		t.Fatalf("%d ports starved", r.PortStarved)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Cores: 3, Threads: 5, Duration: 2e7, QueueCap: 8}
	a := run(t, 4, 5, 50, cfg)
	b := run(t, 4, 5, 50, cfg)
	if a != b {
		t.Fatalf("results diverged:\n%+v\n%+v", a, b)
	}
}

// TestBackoffEngagesWhenIdle: with a slow source (high SourceNs), the
// scheduler threads should record find failures (empty walks) instead of
// spinning.
func TestBackoffEngagesWhenIdle(t *testing.T) {
	g, costOf := buildTopo(t, 1, 3, 0)
	c := DefaultCosts()
	c.SourceNs = 100000 // one tuple per 100µs: threads mostly idle
	s, err := New(g, Config{Cores: 4, Threads: 4, Duration: 2e7, Costs: c, CostOf: costOf})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.FindFailures == 0 {
		t.Fatal("idle threads never failed to find work")
	}
	if r.SinkTuples == 0 {
		t.Fatal("slow source delivered nothing")
	}
}

// TestCostSlowsThroughput: higher per-tuple cost must lower throughput.
func TestCostSlowsThroughput(t *testing.T) {
	cheap := run(t, 1, 10, 10, Config{Cores: 2, Threads: 2, Duration: 2e7})
	costly := run(t, 1, 10, 10000, Config{Cores: 2, Threads: 2, Duration: 2e7})
	if costly.SinkThroughput >= cheap.SinkThroughput {
		t.Fatalf("cost 10000 (%.3g) not slower than cost 10 (%.3g)",
			costly.SinkThroughput, cheap.SinkThroughput)
	}
}

// TestModelCrossCheck compares the DES and the analytic model on the
// direction of scaling for a width-parallel graph: both must agree that
// 8 threads beat 2 with ample cores.
func TestModelCrossCheck(t *testing.T) {
	t2 := run(t, 8, 4, 100, Config{Cores: 16, Threads: 2, Duration: 5e7})
	t8 := run(t, 8, 4, 100, Config{Cores: 16, Threads: 8, Duration: 5e7})
	if t8.SinkThroughput <= 1.5*t2.SinkThroughput {
		t.Fatalf("DES disagrees with the model: 8 threads %.3g not ≫ 2 threads %.3g",
			t8.SinkThroughput, t2.SinkThroughput)
	}
}

// TestDrainLimitKnob exercises the bounded-drain experiment: correctness
// must hold and ports must still rotate.
func TestDrainLimitKnob(t *testing.T) {
	r := run(t, 4, 5, 50, Config{Cores: 4, Threads: 4, Duration: 2e7, DrainLimit: 8})
	if r.OrderViolations != 0 {
		t.Fatalf("%d order violations with bounded drains", r.OrderViolations)
	}
	if r.SinkTuples == 0 {
		t.Fatal("bounded drains delivered nothing")
	}
}

// TestElasticOnDES drives the real elasticity controller against the
// event-level simulation of a width-parallel workload: the controller
// must grow from one thread toward the chain count and the settled
// throughput must beat the single-thread start.
func TestElasticOnDES(t *testing.T) {
	g, costOf := buildTopo(t, 8, 4, 200)
	s, err := New(g, Config{Cores: 16, Threads: 12, Duration: 4e8, CostOf: costOf})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := s.RunElastic(5e6 /* 5ms periods */, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 60 {
		t.Fatalf("trace has %d points", len(trace))
	}
	first := trace[0].Throughput
	tail := trace[45:]
	var sum float64
	maxLevel := 0
	for _, p := range tail {
		sum += p.Throughput
		maxLevel = max(maxLevel, p.Threads)
	}
	settled := sum / float64(len(tail))
	if maxLevel < 4 {
		t.Fatalf("controller never grew past %d threads", maxLevel)
	}
	if settled < 2*first {
		t.Fatalf("settled throughput %.3g not ≫ initial %.3g", settled, first)
	}
	// Correctness invariants hold under suspension and resumption.
	if s.res.OrderViolations != 0 {
		t.Fatalf("%d order violations during elastic run", s.res.OrderViolations)
	}
}

// TestDESSetLevelParksThreads checks suspension mechanics directly.
func TestDESSetLevelParksThreads(t *testing.T) {
	g, costOf := buildTopo(t, 4, 2, 50)
	s, err := New(g, Config{Cores: 8, Threads: 6, Duration: 1e8, CostOf: costOf})
	if err != nil {
		t.Fatal(err)
	}
	for tid := range s.threads {
		s.schedule(tid, 0)
	}
	s.setLevel(2)
	s.runUntil(2e7)
	parked := 0
	for tid := 0; tid < s.cfg.Threads; tid++ {
		if s.parked[tid] {
			parked++
		}
	}
	if parked != 4 {
		t.Fatalf("%d threads parked, want 4", parked)
	}
	before := s.res.Executed
	s.setLevel(6)
	s.runUntil(4e7)
	if s.res.Executed <= before {
		t.Fatal("no progress after resume")
	}
	for tid := 0; tid < s.cfg.Threads; tid++ {
		if s.parked[tid] {
			t.Fatalf("thread %d still parked after resume", tid)
		}
	}
}

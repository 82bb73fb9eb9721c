package pe

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/trace"
)

// TestConfigSweepDrains is the PE-level twin of sched's sweep of the
// same name, covering the threading models that sweep cannot reach:
// Model {Manual, Dedicated, Dynamic} × QueueCap {1, 2, 64} ×
// GlobalFreeList (dynamic only) × {depth-8 pipeline, 20×2 fan-out} ×
// GOMAXPROCS {1, 2}. Every cell must deliver exactly its tuple count at
// the sink within its own deadline, with the settings that do not change
// a run's outcome armed and checked at their consumers: Latency and
// Fault at the execution core under every model, Fault at the queue
// seam, QueueCap at the model's queues, MaxThreads and Tracer at the
// scheduler. The settings subtest covers the rest.
func TestConfigSweepDrains(t *testing.T) {
	const n = 2000
	topos := []struct {
		name string
		topo ops.Topology
	}{
		{"pipeline-8", ops.Topology{Width: 1, Depth: 8}},
		{"fanout-20x2", ops.Topology{Width: 20, Depth: 2}},
	}
	type cell struct {
		model  Model
		global bool
	}
	cells := []cell{{Manual, false}, {Dedicated, false}, {Dynamic, false}, {Dynamic, true}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, qcap := range []int{1, 2, 64} {
			for _, c := range cells {
				for _, tp := range topos {
					name := fmt.Sprintf("procs=%d/qcap=%d/%v/global=%v/%s", procs, qcap, c.model, c.global, tp.name)
					t.Run(name, func(t *testing.T) {
						topo := tp.topo
						topo.Limit = n
						g, snk, err := topo.Build()
						if err != nil {
							t.Fatal(err)
						}
						// Rates small enough never to fire in a cell, so the
						// seams are consulted without perturbing the run.
						inj := fault.New(fault.Config{SlowRate: 1e-12, StallRate: 1e-12})
						cfg := Config{
							Model: c.model, Threads: 2, MaxThreads: 3, QueueCap: qcap,
							GlobalFreeList: c.global, Fault: inj,
							Latency: metrics.NewHistogram(1), ShutdownTimeout: 30 * time.Second,
						}
						if c.model == Dynamic {
							cfg.Tracer = trace.New(TraceRings(cfg, g), 0)
							cfg.Tracer.Enable()
						}
						p, err := New(g, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := p.Start(); err != nil {
							t.Fatal(err)
						}
						if err := p.WaitTimeout(20 * time.Second); err != nil {
							t.Fatal(err)
						}
						if got := snk.Count(); got != n {
							t.Fatalf("sink saw %d tuples, want %d", got, n)
						}
						if got := cfg.Latency.Snapshot().Total; got != n {
							t.Errorf("Latency recorded %d tuples, want %d", got, n)
						}
						if inj.Calls(fault.OpSlow) == 0 {
							t.Error("Fault never consulted at the operator seam")
						}
						if queued := c.model != Manual; queued != (inj.Calls(fault.QueueStall) > 0) {
							t.Errorf("queue seam consulted %d times under %v", inj.Calls(fault.QueueStall), c.model)
						}
						switch r := p.runner.(type) {
						case *dedicatedRunner:
							if got := r.queues[0].Queue().Cap(); got != qcap {
								t.Errorf("dedicated queue capacity %d, want %d", got, qcap)
							}
						case *dynamicRunner:
							if got := p.FlowEdges()[0].Cap; got != qcap {
								t.Errorf("scheduler queue capacity %d, want %d", got, qcap)
							}
							if got := r.s.MaxLevel(); got != 3 {
								t.Errorf("scheduler thread table %d, want MaxThreads 3", got)
							}
							if len(cfg.Tracer.Snapshot()) == 0 {
								t.Error("Tracer recorded no scheduler events")
							}
						}
					})
				}
			}
		}
	}
	t.Run("settings", testSettingsReachConsumers)
}

// testSettingsReachConsumers checks the pe.Config settings the sweep's
// cells do not: every scheduler setting is copied into sched.Config
// under its own name, and each PE-only setting and the settings every
// model consumes outside the scheduler (QuarantineAfter,
// ShutdownTimeout) take effect.
func testSettingsReachConsumers(t *testing.T) {
	// Every sched.Config field is a pe.Config field of the same type,
	// and schedConfig copies it: set every pe.Config field to a non-zero
	// value and compare.
	var cfg Config
	cv := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < cv.NumField(); i++ {
		switch f := cv.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(4)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		}
	}
	sc := reflect.ValueOf(cfg.schedConfig())
	peOnly := map[string]bool{}
	for i := 0; i < cv.NumField(); i++ {
		peOnly[cv.Type().Field(i).Name] = true
	}
	for i := 0; i < sc.NumField(); i++ {
		name := sc.Type().Field(i).Name
		delete(peOnly, name)
		top := cv.FieldByName(name)
		if !top.IsValid() || top.Type() != sc.Field(i).Type() {
			t.Errorf("sched.Config.%s has no pe.Config field of its type", name)
			continue
		}
		if !sc.Field(i).Equal(top) {
			t.Errorf("schedConfig drops %s: %v, want %v", name, sc.Field(i), top)
		}
	}
	want := map[string]bool{"Model": true, "Threads": true, "Elastic": true, "AdaptPeriod": true, "CPUUsage": true, "Trace": true}
	if !reflect.DeepEqual(peOnly, want) {
		t.Errorf("PE-only settings %v, want %v (a new one needs a check here)", peOnly, want)
	}

	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		// QuarantineAfter: the operator panicking on every tuple is
		// quarantined after exactly its budget. ShutdownTimeout: the PE
		// hands it to a source that drains on stop.
		src := &deadlineSource{Generator: ops.Generator{Limit: 100}}
		b := graph.NewBuilder()
		s := b.AddNode(src, 0, 1)
		bad := b.AddNode(&panicky{name: "Bad", panicOn: func(uint64) bool { return true }}, 1, 1)
		sn := b.AddNode(&ops.Sink{}, 1, 0)
		b.Connect(s, 0, bad, 0)
		b.Connect(bad, 0, sn, 0)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(g, Config{Model: model, Threads: 2, QuarantineAfter: 2, ShutdownTimeout: 7 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if p.Model() != model {
			t.Errorf("Model %v, want %v", p.Model(), model)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if err := p.WaitTimeout(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if fs := p.FaultStats(); fs.OpPanics != 2 || fs.Quarantines != 1 {
			t.Errorf("%v: %d panics, %d quarantines; want QuarantineAfter 2 and 1", model, fs.OpPanics, fs.Quarantines)
		}
		if src.deadline != 7*time.Second {
			t.Errorf("%v: source drain deadline %v, want ShutdownTimeout 7s", model, src.deadline)
		}
	}

	// Threads, Elastic, AdaptPeriod, CPUUsage and Trace: an elastic run
	// starts at Threads and reports each period, gated by CPUUsage.
	g := pipelineGraph(t, 2, 0, &ops.Sink{})
	var gated, traced atomic.Int64
	p, err := New(g, Config{
		Threads: 2, MaxThreads: 4, Elastic: true, AdaptPeriod: 5 * time.Millisecond,
		CPUUsage: func() (float64, error) { gated.Add(1); return 0.1, nil },
		Trace:    func(Sample) { traced.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Level() != 2 {
		t.Errorf("initial level %d, want Threads 2", p.Level())
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); traced.Load() < 3 || gated.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d Trace samples, %d CPUUsage reads", traced.Load(), gated.Load())
		}
	}
	p.Stop()
}

// deadlineSource is a bounded Generator that records the drain deadline
// the PE hands a source that flushes buffered work on stop.
type deadlineSource struct {
	ops.Generator
	deadline time.Duration
}

func (s *deadlineSource) SetDrainDeadline(d time.Duration) { s.deadline = d }

var _ graph.Source = (*deadlineSource)(nil)

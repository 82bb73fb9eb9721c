package pe

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// panicky forwards tuples but panics on selected sequence numbers,
// modeling an operator with a data-dependent bug.
type panicky struct {
	name    string
	panicOn func(word uint64) bool
}

func (p *panicky) Name() string { return p.name }

func (p *panicky) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if p.panicOn(t.Words[0]) {
		panic("boom: " + p.name)
	}
	out.Submit(t, 0)
}

// TestPanicContainedAllModels runs the same buggy pipeline under all
// three threading models and checks the containment contract everywhere:
// the process survives, the operator is quarantined after its strike
// budget, final punctuation still propagates past the quarantined node
// (the PE drains), and delivered + dead-lettered == generated.
func TestPanicContainedAllModels(t *testing.T) {
	const n = 2000
	for _, model := range []Model{Manual, Dedicated, Dynamic} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			snk := &ops.Sink{}
			b := graph.NewBuilder()
			src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
			// Panics on words 0, 500, 1000 (the third strike quarantines)
			// and would on 1500, which is dead-lettered instead.
			bad := b.AddNode(&panicky{name: "Bad", panicOn: func(w uint64) bool { return w%500 == 0 }}, 1, 1)
			wk := b.AddNode(&ops.Worker{}, 1, 1)
			sn := b.AddNode(snk, 1, 0)
			b.Connect(src, 0, bad, 0)
			b.Connect(bad, 0, wk, 0)
			b.Connect(wk, 0, sn, 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(g, Config{Model: model, Threads: 2, MaxThreads: 2, QuarantineAfter: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			// A bounded WaitTimeout returning nil is the drain proof: final
			// punctuation crossed the quarantined operator.
			if err := p.WaitTimeout(30 * time.Second); err != nil {
				t.Fatalf("%v: drain failed: %v", model, err)
			}
			fs := p.FaultStats()
			if fs.OpPanics != 3 {
				t.Errorf("%v: OpPanics = %d, want 3", model, fs.OpPanics)
			}
			if fs.Quarantines != 1 {
				t.Errorf("%v: Quarantines = %d, want 1", model, fs.Quarantines)
			}
			if got := snk.Count() + fs.DeadLetters; got != n {
				t.Errorf("%v: delivered %d + dead-lettered %d = %d, want %d (conservation broken)",
					model, snk.Count(), fs.DeadLetters, got, n)
			}
			if snk.Count() == 0 {
				t.Errorf("%v: sink saw nothing; containment swallowed the stream", model)
			}
			if !p.QuarantinedNode(bad) {
				t.Errorf("%v: QuarantinedNode(Bad) = false", model)
			}
			if p.QuarantinedNode(wk) {
				t.Errorf("%v: the healthy worker behind Bad is quarantined", model)
			}
			// Bad executed the tuples that neither panicked nor met the
			// quarantine; everything it forwarded reached the worker.
			exec := make([]uint64, p.NumNodes())
			if !p.NodeExecuted(exec) {
				t.Fatalf("%v: NodeExecuted reported no per-node meters", model)
			}
			if exec[bad] != snk.Count() || exec[wk] != snk.Count() || exec[sn] != snk.Count() {
				t.Errorf("%v: per-node executions %v, want Bad = Worker = Snk = %d", model, exec, snk.Count())
			}
			want := fmt.Sprintf("operator Bad (node %d) panicked: boom: Bad", bad)
			if lf := p.LastFault(); lf != want {
				t.Errorf("%v: LastFault %q, want %q", model, lf, want)
			}
		})
	}
}

// TestSchedStatsSurfaceFaults checks the dynamic model surfaces the
// containment meters through SchedStats as well as FaultStats.
func TestSchedStatsSurfaceFaults(t *testing.T) {
	const n = 100
	snk := &ops.Sink{}
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	bad := b.AddNode(&panicky{name: "Bad", panicOn: func(w uint64) bool { return w == 7 }}, 1, 1)
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, bad, 0)
	b.Connect(bad, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Config{Model: Dynamic, Threads: 1, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	runToDrain(t, p)
	st := p.SchedStats()
	if st.Faults != p.FaultStats() {
		t.Errorf("SchedStats.Faults %+v != FaultStats %+v", st.Faults, p.FaultStats())
	}
	if st.Faults.OpPanics != 1 || st.Faults.DeadLetters != 1 {
		t.Errorf("Faults = %+v, want exactly one contained panic and dead letter", st.Faults)
	}
}

// TestStopDeadlineNamesBlockedSource: an unlimited source feeds an
// operator that wedges on word 100 behind capacity-4 queues, with one
// scheduler thread. Whichever executor runs the word wedges, and the
// source ends up either wedged itself or blocked in reSchedule behind a
// full queue whose consumer lock the wedged thread holds. Stop must
// still return within its deadline budget — the source wait and the
// runner's shutdown, ShutdownTimeout each — and Err must name the stuck
// source.
func TestStopDeadlineNamesBlockedSource(t *testing.T) {
	const timeout = 200 * time.Millisecond
	release, entered := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wedge := &ops.Custom{OpName: "Wedge", Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		if tp.Words[0] == 100 {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		out.Submit(tp, 0)
	}}
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{}, 0, 1)
	wn := b.AddNode(wedge, 1, 1)
	b.Connect(src, 0, wn, 0)
	b.Connect(wn, 0, b.AddNode(&ops.Sink{}, 1, 0), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, Config{Model: Dynamic, Threads: 1, MaxThreads: 1, QueueCap: 4, ShutdownTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer close(release) // let the wedged executor return so the test leaks nothing
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the wedging word never executed")
	}
	stopped := make(chan struct{})
	start := time.Now()
	go func() {
		p.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop still blocked after 3s with a 200ms shutdown deadline")
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("Stop returned after %v, before its %v deadline", elapsed, timeout)
	}
	err = p.Err()
	if err == nil {
		t.Fatal("Err is nil after Stop missed its deadline")
	}
	if want := "sources [0 (Src)] have not stopped"; !strings.Contains(err.Error(), want) {
		t.Errorf("Err %.160q does not say %q", err.Error(), want)
	}
}

package exec

import (
	"slices"
	"sync"
	"testing"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// recorder is a submitter that keeps what an operator submits.
type recorder struct{ got []tuple.Tuple }

func (r *recorder) Submit(t tuple.Tuple, _ int) { r.got = append(r.got, t) }

// faulty forwards data, panics on odd words, and counts the
// punctuation callbacks it is given.
type faulty struct{ windows, finals int }

func (f *faulty) Name() string { return "Faulty" }
func (f *faulty) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if t.Words[0]%2 == 1 {
		panic("odd")
	}
	out.Submit(t, 0)
}
func (f *faulty) OnPunct(_ graph.Submitter, k tuple.Kind, _ int) {
	if k == tuple.WindowMark {
		f.windows++
	} else {
		f.finals++
	}
}

// TestSpanContainmentAndDrain runs one batch through a faulty operator
// and checks the whole contract: a panic dead-letters only its tuple,
// the strike budget quarantines the operator, punctuation keeps flowing
// past it, and the last final runs Drained once and closes Done.
func TestSpanContainmentAndDrain(t *testing.T) {
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{}, 0, 1)
	f := &faulty{}
	mid := b.AddNode(f, 1, 1)
	sn := b.AddNode(&ops.Sink{}, 1, 0)
	b.Connect(src, 0, mid, 0)
	b.Connect(mid, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	c := New(g, Options{Shards: 1, QuarantineAfter: 2, Drained: func() { drained++ }})
	data := func(w uint64) tuple.Tuple { return tuple.NewData(w) }
	batch := []tuple.Tuple{data(0), data(1), tuple.Window(), data(2), data(3), data(4), tuple.Window(), tuple.Final()}
	out := &recorder{}
	c.Execute(out, 0, g.Ports[g.Nodes[mid].InPorts[0]], batch)

	var kinds []tuple.Kind
	for _, tp := range out.got {
		kinds = append(kinds, tp.Kind)
	}
	want := []tuple.Kind{tuple.Data, tuple.WindowMark, tuple.Data, tuple.WindowMark, tuple.FinalMark}
	if !slices.Equal(kinds, want) {
		t.Fatalf("forwarded %v, want %v", kinds, want)
	}
	// Words 1 and 3 panic; the second strike quarantines, so 4 is
	// dead-lettered unexecuted and the later callbacks are skipped.
	if fs := c.Faults(); fs.OpPanics != 2 || fs.DeadLetters != 3 || fs.Quarantines != 1 {
		t.Errorf("faults %+v, want 2 panics, 3 dead letters, 1 quarantine", fs)
	}
	if !c.Quarantined(mid) || c.Quarantined(sn) {
		t.Error("quarantine set wrong")
	}
	if f.windows != 1 || f.finals != 0 {
		t.Errorf("OnPunct saw %d windows and %d finals, want 1 and 0", f.windows, f.finals)
	}
	if got := c.OperatorCounts()["Faulty"]; got != 2 || c.Executed() != 2 {
		t.Errorf("Faulty executed %d (PE %d), want 2", got, c.Executed())
	}
	if want := "operator Faulty (node 1) panicked: odd"; c.LastFault() != want {
		t.Errorf("LastFault %q, want %q", c.LastFault(), want)
	}
	if !c.PortClosed(int32(g.Nodes[mid].InPorts[0])) {
		t.Error("the final did not close Faulty's port")
	}
	select {
	case <-c.Done():
		t.Fatal("Done closed with the sink's port still open")
	default:
	}

	c.Execute(&recorder{}, 0, g.Ports[g.Nodes[sn].InPorts[0]], []tuple.Tuple{data(0), tuple.Final()})
	<-c.Done()
	if drained != 1 || c.SinkDelivered() != 1 || c.Executed() != 3 {
		t.Errorf("drained %d times, sink delivered %d, executed %d; want 1, 1, 3", drained, c.SinkDelivered(), c.Executed())
	}
}

// TestChaosExecuteConservation drives four ports concurrently through
// one core with seeded injected panics: every data tuple is either
// executed or dead-lettered, exactly once, and the graph drains.
func TestChaosExecuteConservation(t *testing.T) {
	const ports, batches, batchLen = 4, 200, 32
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{}, 0, 1)
	for i := 0; i < ports; i++ {
		b.Connect(src, 0, b.AddNode(&ops.Sink{}, 1, 0), 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: 42, PanicRate: 0.05})
	c := New(g, Options{Shards: ports, QuarantineAfter: 1 << 30, Fault: inj})
	var wg sync.WaitGroup
	for tid, p := range g.Ports {
		wg.Add(1)
		go func(tid int, p *graph.InPort) {
			defer wg.Done()
			batch := make([]tuple.Tuple, batchLen)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = tuple.NewData(uint64(i*batchLen + j))
				}
				c.Execute(&recorder{}, tid, p, batch)
			}
			c.Execute(&recorder{}, tid, p, []tuple.Tuple{tuple.Final()})
		}(tid, p)
	}
	wg.Wait()
	<-c.Done()
	fs := c.Faults()
	if fs.OpPanics == 0 || fs.Quarantines != 0 {
		t.Fatalf("faults %+v: want injected panics and no quarantine", fs)
	}
	if got := c.Executed() + fs.DeadLetters; got != ports*batches*batchLen || fs.DeadLetters != fs.OpPanics {
		t.Errorf("executed %d + dead-lettered %d = %d, want %d with one dead letter per panic (%d)",
			c.Executed(), fs.DeadLetters, got, ports*batches*batchLen, fs.OpPanics)
	}
}

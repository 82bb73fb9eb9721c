package sched

import (
	"strings"
	"sync"
	"testing"
	"time"

	"streams/internal/fault"
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

// TestPanicQuarantineAndConservation: a repeatedly panicking operator is
// contained (the process survives), quarantined after the strike budget,
// and every generated tuple is either delivered or dead-lettered —
// while final punctuation still propagates past the quarantined node so
// the PE drains.
func TestPanicQuarantineAndConservation(t *testing.T) {
	const n = 5000
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	bad := b.AddNode(&panicky{name: "Bad", panicOn: func(w uint64) bool { return w%1000 == 0 }}, 1, 1)
	wk := b.AddNode(&ops.Worker{}, 1, 1)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, bad, 0)
	b.Connect(bad, 0, wk, 0)
	b.Connect(wk, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := runGraph(t, g, Config{MaxThreads: 4, QuarantineAfter: 3}, 2)

	fs := s.Faults()
	// Panics land on words 0, 1000, 2000; the third strike quarantines,
	// so words 2001…4999 are dead-lettered without execution.
	if fs.OpPanics != 3 {
		t.Errorf("OpPanics = %d, want 3", fs.OpPanics)
	}
	if fs.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", fs.Quarantines)
	}
	if !s.Quarantined(bad) {
		t.Error("panicking node not quarantined")
	}
	if got := snk.Count() + fs.DeadLetters; got != n {
		t.Errorf("delivered %d + dead-lettered %d = %d, want %d (conservation broken)",
			snk.Count(), fs.DeadLetters, got, n)
	}
	if snk.Count() == 0 {
		t.Error("sink saw nothing; containment swallowed the stream")
	}
	if lf := s.LastFault(); !strings.Contains(lf, "Bad") {
		t.Errorf("LastFault %q does not name the operator", lf)
	}
	_ = src
}

// TestChaosInjectedPanicConservation: with deterministic injected panics at
// every operator seam and quarantine effectively disabled, each fired
// panic dead-letters exactly one tuple: delivered + dead-lettered ==
// generated.
func TestChaosInjectedPanicConservation(t *testing.T) {
	const n = 20000
	inj := fault.New(fault.Config{Seed: 42, PanicRate: 0.01})
	snk := &ops.Sink{}
	g := pipelineGraph(t, 5, n, snk)
	s := runGraph(t, g, Config{MaxThreads: 4, Fault: inj, QuarantineAfter: 1 << 30}, 2)

	fs := s.Faults()
	if fs.OpPanics == 0 {
		t.Fatal("injector never fired over ~120k consultations")
	}
	if fs.OpPanics != fs.DeadLetters {
		t.Errorf("OpPanics %d != DeadLetters %d with quarantine disabled", fs.OpPanics, fs.DeadLetters)
	}
	if got := snk.Count() + fs.DeadLetters; got != n {
		t.Errorf("delivered %d + dead-lettered %d = %d, want %d", snk.Count(), fs.DeadLetters, got, n)
	}
	if fired := inj.Fired(fault.OpPanic); fired != fs.OpPanics {
		t.Errorf("injector fired %d, containment recovered %d", fired, fs.OpPanics)
	}
}

// blocker parks on a channel the first time it executes, simulating an
// operator wedged on an external dependency.
type blocker struct {
	release chan struct{}
	once    sync.Once
	entered chan struct{}
}

func (b *blocker) Name() string { return "Blocker" }

func (b *blocker) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	out.Submit(t, 0)
}

// wedgeGraph is Generator(limit) -> op -> Sink. With onSource set the
// source's stream feeds op alone, so a partial source batch commits on
// the source's own thread (tryChain); otherwise the stream is tapped
// (tapConnect), the port is unchainable, and op runs on a scheduler
// thread.
func wedgeGraph(t *testing.T, limit uint64, op graph.Operator, onSource bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	on := b.AddNode(op, 1, 1)
	tapConnect(b, !onSource)(src, 0, on)
	b.Connect(on, 0, b.AddNode(&ops.Sink{}, 1, 0), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShutdownDeadlineNamesStuckThread: Shutdown with a thread wedged
// inside operator code returns within the deadline, naming the stuck
// thread and attaching a goroutine dump — instead of hanging forever.
// The twin below wedges a source frame instead.
func TestShutdownDeadlineNamesStuckThread(t *testing.T) {
	testShutdownDeadline(t, false, "scheduler threads [0] have not exited")
}

// TestShutdownDeadlineNamesStuckSource: a source frame running a partial
// batch to completion is wedged inside operator code. Shutdown has no
// goroutine of its own to wait for there, but it still waits for the
// frame to leave operator code, and on expiry names the source.
func TestShutdownDeadlineNamesStuckSource(t *testing.T) {
	testShutdownDeadline(t, true, "sources [0] are still in operator code")
}

func testShutdownDeadline(t *testing.T, onSource bool, want string) {
	blk := &blocker{release: make(chan struct{}), entered: make(chan struct{})}
	g := wedgeGraph(t, 1, blk, onSource)
	s := New(g, Config{MaxThreads: 1, ShutdownTimeout: 300 * time.Millisecond})
	s.Start(1)
	n := g.SourceNodes[0]
	go n.Op.(graph.Source).Run(s.SourceSubmitter(n, 0), make(chan struct{}))
	select {
	case <-blk.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("operator never executed")
	}
	start := time.Now()
	err := s.Shutdown()
	if err == nil {
		t.Fatal("Shutdown returned nil with a wedged operator")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Shutdown took %v; deadline did not bound it", elapsed)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %.120q does not say %q", err.Error(), want)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Error("error carries no goroutine dump")
	}
	close(blk.release) // let the wedged frame return so the test leaks nothing
}

// TestWatchdogReportsStalledThread: a thread that sits inside one
// operator call past the stall threshold is reported by the watchdog
// while it is still stuck, and the report re-arms after progress.
//
// The generator limit stays below the queue capacity on purpose: a full
// queue would make the source thread execute the slow operator itself
// through reSchedule self-help. Its one partial batch would commit on
// the source's thread too, so the stream is tapped (wedgeGraph): the
// twin below covers the source frame.
func TestWatchdogReportsStalledThread(t *testing.T) {
	testWatchdogStall(t, false, "sched: thread 0 stuck in operator code for ")
}

// TestWatchdogReportsStalledSource: the one partial source batch runs to
// completion on the source's thread, inside the slow operator; the
// watchdog walks the sources' owners too and names the source.
func TestWatchdogReportsStalledSource(t *testing.T) {
	testWatchdogStall(t, true, "sched: source 0 stuck in operator code for ")
}

func testWatchdogStall(t *testing.T, onSource bool, want string) {
	const stall = 300 * time.Millisecond
	slow := &ops.Custom{OpName: "Slow", Fn: func(out graph.Submitter, tp tuple.Tuple, _ int) {
		if tp.Words[0] == 0 {
			time.Sleep(stall)
		}
		out.Submit(tp, 0)
	}}
	g := wedgeGraph(t, 8, slow, onSource)
	s := runGraph(t, g, Config{
		MaxThreads:       2,
		WatchdogInterval: 10 * time.Millisecond,
		StallThreshold:   50 * time.Millisecond,
	}, 1)
	if got := s.Faults().WatchdogStalls; got == 0 {
		t.Fatal("watchdog never reported the stall")
	}
	if lf := s.LastFault(); !strings.HasPrefix(lf, want) {
		t.Fatalf("LastFault = %q, want a stall report starting %q", lf, want)
	}
	if got := s.Stats().Chain.SourceCommits; (got != 0) != onSource {
		t.Errorf("SourceCommits = %d with the batch on the source frame %v", got, onSource)
	}
}

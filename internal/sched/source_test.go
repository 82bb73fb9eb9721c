package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
)

// Tests for the source-frame commit: a source's partial batch runs to
// completion on the source's thread at the push (tryChain with thr nil),
// a full batch goes to the queue.

// pacedSource submits its tuples in bursts of 1..maxBurst through
// SubmitBatch, yielding the processor between bursts: an input-bound
// source that never fills a batch.
type pacedSource struct {
	tuples   []tuple.Tuple
	maxBurst int
}

func (p *pacedSource) Name() string                              { return "PacedSrc" }
func (p *pacedSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (p *pacedSource) Run(out graph.Submitter, stop <-chan struct{}) {
	buf := make([]tuple.Tuple, 0, p.maxBurst)
	for i := 0; i < len(p.tuples); {
		select {
		case <-stop:
			return
		default:
		}
		k := min(1+i%p.maxBurst, len(p.tuples)-i)
		// SubmitBatch overwrites Port, Seq and Stamp: submit copies.
		buf = append(buf[:0], p.tuples[i:i+k]...)
		graph.SubmitBatch(out, buf, 0)
		i += k
		runtime.Gosched()
	}
}

// dataTuples returns n data tuples carrying 0..n-1.
func dataTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.NewData(uint64(i))
	}
	return ts
}

// TestSourceFrameCommitsPartialBatch drives a source's submitter by hand
// with no scheduler thread running, so whatever executes, executes on
// the test's goroutine. Each partial batch must run to completion before
// SubmitBatch returns — every operator's count exact, the queues empty,
// one source commit per batch — on a native pipeline (per-operator chain
// links) and on a programmed one (the fused run). A full batch must
// never commit: it waits in the queue, until the next partial batch
// drains it ahead of itself (drainAhead) and commits behind it. Two full
// batches through a four-operator fused run cost a whole allowance;
// the batch behind them must still commit, fused, to the sink.
func TestSourceFrameCommitsPartialBatch(t *testing.T) {
	for _, programmed := range []bool{false, true} {
		t.Run(fmt.Sprint("programmed=", programmed), func(t *testing.T) {
			const depth = 4
			snk := &ops.Sink{OpName: "Snk"}
			b := graph.NewBuilder()
			prev := b.AddNode(&ops.Generator{}, 0, 1)
			for i := 1; i <= depth; i++ {
				w := &ops.Worker{OpName: fmt.Sprint("W", i)}
				if programmed {
					w.Prog = ops.WorkerProgram(w.OpName, 0)
				}
				n := b.AddNode(w, 1, 1)
				b.Connect(prev, 0, n, 0)
				prev = n
			}
			b.Connect(prev, 0, b.AddNode(snk, 1, 0), 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			s := New(g, Config{MaxThreads: 1})
			src := g.SourceNodes[0]
			out := s.SourceSubmitter(src, 0).(graph.BatchSubmitter)
			requireCounts := func(when string, want uint64) {
				t.Helper()
				got := s.OperatorCounts()
				for _, name := range []string{"W1", "W2", "W3", "W4", "Snk"} {
					if got[name] != want {
						t.Fatalf("%s: %s executed %d tuples, want %d (counts %v)", when, name, got[name], want, got)
					}
				}
			}

			var sent uint64
			for k, size := range []int{1, 5, s.batchCap - 1} {
				out.SubmitBatch(dataTuples(size), 0)
				sent += uint64(size)
				when := fmt.Sprintf("after partial batch %d (%d tuples)", k, size)
				requireCounts(when, sent)
				if bl := s.Backlog(); bl != 0 {
					t.Fatalf("%s: %d tuples queued", when, bl)
				}
				if got := s.Stats().Chain.SourceCommits; got != uint64(k+1) {
					t.Fatalf("%s: SourceCommits = %d, want %d", when, got, k+1)
				}
			}
			if v := s.Stats().VM; programmed != (v.FusedRuns == 3) {
				t.Errorf("fused runs %d with programmed=%v, want 3 exactly when programmed", v.FusedRuns, programmed)
			}

			for k := 1; k <= 2; k++ {
				out.SubmitBatch(dataTuples(s.batchCap), 0)
				requireCounts("after a full batch", sent)
				if bl := s.Backlog(); bl != k*s.batchCap {
					t.Fatalf("full batch %d: %d tuples queued, want %d", k, bl, k*s.batchCap)
				}
			}
			if got := s.Stats().Chain.SourceCommits; got != 3 {
				t.Fatalf("full batch committed on the source frame: SourceCommits = %d, want 3", got)
			}

			out.SubmitBatch(dataTuples(2), 0)
			sent += uint64(2*s.batchCap) + 2
			requireCounts("after a partial batch behind the full ones", sent)
			if bl := s.Backlog(); bl != 0 {
				t.Fatalf("partial batch behind the full ones left %d tuples queued", bl)
			}
			st := s.Stats()
			if st.Chain.SourceCommits != 4 || st.Chain.BudgetStops != 0 {
				t.Fatalf("partial batch behind the full ones: chain meters %+v, want 4 source commits, no budget stop", st.Chain)
			}
			if programmed && st.VM.FusedRuns != 6 {
				t.Errorf("fused runs %d, want 6: three partial batches, two drained full ones, the batch behind them", st.VM.FusedRuns)
			}

			s.SourceDone(src, 0)
			s.Start(1)
			s.Wait()
			requireCounts("after the drain", sent)
			if got, want := s.Executed(), sent*(depth+1); got != want {
				t.Errorf("Executed = %d, want %d", got, want)
			}
		})
	}
}

// TestSourceFramePunctuation: window marks inside a partial source batch
// forward in position through the commit on the source frame — through
// per-operator links, and past a fused run, which declines a batch with
// punctuation — and the source's final punctuation, which it pushes,
// still drains the graph.
func TestSourceFramePunctuation(t *testing.T) {
	for _, programmed := range []bool{false, true} {
		t.Run(fmt.Sprint("programmed=", programmed), func(t *testing.T) {
			rec := &streamRecorder{}
			b := graph.NewBuilder()
			prev := b.AddNode(&ops.Generator{}, 0, 1)
			for i := 0; i < 3; i++ {
				w := &ops.Worker{}
				if programmed {
					w.Prog = ops.WorkerProgram("W", 0)
				}
				n := b.AddNode(w, 1, 1)
				b.Connect(prev, 0, n, 0)
				prev = n
			}
			b.Connect(prev, 0, b.AddNode(rec, 1, 0), 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			s := New(g, Config{MaxThreads: 1})
			src := g.SourceNodes[0]
			out := s.SourceSubmitter(src, 0).(graph.BatchSubmitter)
			out.SubmitBatch([]tuple.Tuple{tuple.NewData(0), tuple.NewData(1), tuple.Window(), tuple.NewData(2)}, 0)
			out.SubmitBatch([]tuple.Tuple{tuple.Window(), tuple.NewData(3), tuple.Window()}, 0)
			want := []uint64{0, 1, windowMark, 2, windowMark, 3, windowMark}
			if fmt.Sprint(rec.events) != fmt.Sprint(want) {
				t.Fatalf("recorder saw %v before any thread ran, want %v", rec.events, want)
			}
			if got := s.Stats().Chain.SourceCommits; got != 2 {
				t.Errorf("SourceCommits = %d, want 2", got)
			}
			s.SourceDone(src, 0)
			s.Start(1)
			s.Wait()
			if fmt.Sprint(rec.events) != fmt.Sprint(want) {
				t.Fatalf("recorder saw %v after the drain, want %v", rec.events, want)
			}
		})
	}
}

// TestSourceFrameContainment: an operator that panics on every tenth
// word runs once on the source frame (the paced source's bursts commit
// there, no thread competing) and once on a scheduler thread (the
// source's stream tapped, so its port never chains). Containment must
// not care where it runs: the same strikes, the same quarantine, the
// same dead letters and deliveries, the same last fault.
func TestSourceFrameContainment(t *testing.T) {
	const n = 40
	for _, onSource := range []bool{true, false} {
		t.Run(fmt.Sprint("onSource=", onSource), func(t *testing.T) {
			snk := &ops.Sink{}
			b := graph.NewBuilder()
			src := b.AddNode(&pacedSource{tuples: dataTuples(n), maxBurst: 5}, 0, 1)
			bad := b.AddNode(&panicky{name: "Bad", panicOn: func(w uint64) bool { return w%10 == 0 }}, 1, 1)
			tapConnect(b, !onSource)(src, 0, bad)
			b.Connect(bad, 0, b.AddNode(snk, 1, 0), 0)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{MaxThreads: 2, QuarantineAfter: 2}
			var s *Scheduler
			if onSource {
				s = New(g, cfg)
				sn := g.SourceNodes[0]
				sn.Op.(graph.Source).Run(s.SourceSubmitter(sn, 0), make(chan struct{}))
				s.SourceDone(sn, 0)
				s.Start(1)
				s.Wait()
			} else {
				s = runGraph(t, g, cfg, 2)
			}
			if got := s.Stats().Chain.SourceCommits; (got != 0) != onSource {
				t.Errorf("SourceCommits = %d with onSource %v", got, onSource)
			}
			// Words 0 and 10 panic (the second strike quarantines); 11..39
			// are dead-lettered unexecuted; 1..9 are delivered.
			fs := s.Faults()
			if fs.OpPanics != 2 || fs.Quarantines != 1 || fs.DeadLetters != 31 {
				t.Errorf("faults %+v, want 2 panics, 1 quarantine, 31 dead letters", fs)
			}
			if !s.Quarantined(bad) {
				t.Error("Bad not quarantined")
			}
			if snk.Count() != 9 {
				t.Errorf("sink saw %d tuples, want 9", snk.Count())
			}
			if lf := s.LastFault(); !strings.Contains(lf, "operator Bad") {
				t.Errorf("LastFault %q does not name Bad", lf)
			}
		})
	}
}

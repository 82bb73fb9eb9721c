package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/ops"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// progPipelineGraph is pipelineGraph with a bytecode program attached to
// every worker, so chainable runs are eligible for fused dispatch.
func progPipelineGraph(t *testing.T, depth int, limit uint64, cost int, snk *ops.Sink) *graph.Graph {
	t.Helper()
	g, _ := countedPipelineGraph(t, &ops.Generator{Limit: limit}, depth, cost, snk)
	return g
}

// paceSource holds g's generator at every batch boundary until the sink
// has counted every tuple generated before it, so each source batch
// meets an idle pipeline: every interior queue is empty when its batch
// is drained, and the commit at the first worker's port is
// deterministic. (An unpaced generator outruns two scheduler threads on
// a small host; fusion then commits at the dequeue whenever the run's
// interior is clear, which TestFusedAtDequeueWhenSourceOutruns pins —
// the tests below are about the accounting of a commit, not about how
// often one happens.) Only for runs that lose no tuple.
func paceSource(g *graph.Graph, snk *ops.Sink) {
	gen := g.SourceNodes[0].Op.(*ops.Generator)
	gen.Payload = func(i uint64) tuple.Tuple {
		for i%graph.BatchSize == 0 && snk.Count() < i {
			runtime.Gosched()
		}
		return tuple.NewData(i)
	}
}

// TestFusedFiresOnProgrammedPipeline proves fused dispatch actually runs
// on the topology it was built for, and that its accounting matches the
// per-operator path exactly: every tuple is still executed once per
// operator, order is preserved, and the VM meters move.
func TestFusedFiresOnProgrammedPipeline(t *testing.T) {
	const n, depth = 20000, 10
	var mu sync.Mutex
	var seen []uint64
	snk := newOrderSink(&mu, &seen)
	g := progPipelineGraph(t, depth, n, 0, snk)
	paceSource(g, snk)
	s := runGraph(t, g, Config{MaxThreads: 4}, 2)
	if len(seen) != n {
		t.Fatalf("sink saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
	// Execution counters must be path-independent: depth workers plus
	// the sink each execute every tuple exactly once.
	if got, want := s.Executed(), uint64(n*(depth+1)); got != want {
		t.Fatalf("Executed = %d, want %d", got, want)
	}
	v := s.Stats().VM
	if v.Programs != depth {
		t.Errorf("Programs = %d, want %d (one per worker)", v.Programs, depth)
	}
	if v.FusedRuns == 0 {
		t.Fatalf("fused dispatch never fired on a programmed %d-deep pipeline: %+v", depth, v)
	}
	if v.FusedTuples < v.FusedRuns {
		t.Errorf("fused tuples %d < fused runs %d: every run moves at least one tuple", v.FusedTuples, v.FusedRuns)
	}
}

// TestVecFiresOnProgrammedPipeline: the vectorized commit path must
// actually run on a programmed pipeline — batches at or above the
// cutoff go through the BatchMachine — and its accounting must hold:
// every fused run is either a vectorized batch or a metered scalar
// fall-back, rows are conserved, and delivery order is untouched.
func TestVecFiresOnProgrammedPipeline(t *testing.T) {
	const n, depth = 20000, 10
	var mu sync.Mutex
	var seen []uint64
	snk := newOrderSink(&mu, &seen)
	g := progPipelineGraph(t, depth, n, 0, snk)
	paceSource(g, snk)
	s := runGraph(t, g, Config{MaxThreads: 4}, 2)
	if len(seen) != n {
		t.Fatalf("sink saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
	if got, want := s.Executed(), uint64(n*(depth+1)); got != want {
		t.Fatalf("Executed = %d, want %d", got, want)
	}
	v := s.Stats().VM
	if v.VecBatches == 0 {
		t.Fatalf("vectorized dispatch never fired on a programmed %d-deep pipeline: %+v", depth, v)
	}
	if v.VecBatches+v.VecFallbacks != v.FusedRuns {
		t.Errorf("vec batches %d + fallbacks %d != fused runs %d: every fused run takes exactly one path",
			v.VecBatches, v.VecFallbacks, v.FusedRuns)
	}
	if v.VecRows == 0 || v.VecRows > v.FusedTuples {
		t.Errorf("vec rows %d out of range (fused tuples %d)", v.VecRows, v.FusedTuples)
	}
}

// TestFusedDeclinesUnderChaos: with a chaos injector armed, faults must
// flow through the per-operator seams, so every would-be fused run falls
// back — metered — and conservation still holds.
func TestFusedDeclinesUnderChaos(t *testing.T) {
	const n = 12000
	inj := fault.New(fault.Config{Seed: 42, PanicRate: 0.005})
	snk := &ops.Sink{}
	g := progPipelineGraph(t, 10, n, 0, snk)
	s := runGraph(t, g, Config{MaxThreads: 4, Fault: inj, QuarantineAfter: 1 << 30}, 2)
	v := s.Stats().VM
	if v.FusedRuns != 0 {
		t.Fatalf("fused dispatch ran under chaos: %+v", v)
	}
	if v.Fallbacks == 0 {
		t.Error("no metered fall-backs: chain commits should have declined fusion")
	}
	fs := s.Faults()
	if fs.OpPanics == 0 {
		t.Fatal("injector never fired")
	}
	if got := snk.Count() + fs.DeadLetters; got != n {
		t.Errorf("delivered %d + dead-lettered %d = %d, want %d", snk.Count(), fs.DeadLetters, got, n)
	}
}

// panicProgram forwards its tuple, but divides by seq%interval first, so
// tuples whose source sequence number is a multiple of interval panic
// with the VM's division-by-zero error.
func panicProgram(t *testing.T, name string, interval int64) *vm.Program {
	t.Helper()
	b := vm.NewBuilder()
	b.ConstI(1)
	b.Ins(vm.OpLoadSeq, 0, 0)
	b.ConstI(interval)
	b.Op(vm.OpModI)
	b.Op(vm.OpDivI)
	b.Op(vm.OpPop)
	b.Op(vm.OpEmit)
	p, err := b.Finish(vm.Seg{Name: name}, vm.Layout{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(vm.Identity); err != nil {
		t.Fatal(err)
	}
	return p
}

// seqPanicky is the closure twin of panicProgram: both dispatch forms
// must panic on exactly the same tuples, so dead-letter counts are
// deterministic whichever path a given batch takes.
type seqPanicky struct {
	name     string
	interval uint64
	prog     *vm.Program
}

func (p *seqPanicky) Name() string           { return p.name }
func (p *seqPanicky) VMProgram() *vm.Program { return p.prog }

func (p *seqPanicky) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if t.Seq%p.interval == 0 {
		panic("seqPanicky: induced failure")
	}
	out.Submit(t, 0)
}

// TestFusedPanicContainment: a segment panic inside a fused run must
// dead-letter only the offending tuple, attribute the strike to the
// segment's operator, and leave the rest of the batch (and the run)
// intact — exactly the containment the per-operator path gives. The
// panic set is keyed on load.seq, and only a run's first segment reads
// a stamped sequence (interior hops skip the stamp), so the panicking
// operator must be the graph's first programmed node: the worker
// upstream of it carries no program, which roots the run at Bad and
// lets both the push-time commit (Up's flush) and the dequeue commit
// (Bad's own queue) see Up's stamps — as the per-operator path does.
func TestFusedPanicContainment(t *testing.T) {
	const n, interval = 10000, 250
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	up := b.AddNode(&ops.Worker{OpName: "Up"}, 1, 1)
	bad := b.AddNode(&seqPanicky{
		name:     "Bad",
		interval: interval,
		prog:     panicProgram(t, "Bad", interval),
	}, 1, 1)
	w := b.AddNode(&ops.Worker{Prog: ops.WorkerProgram("W", 0)}, 1, 1)
	snk := &ops.Sink{}
	sn := b.AddNode(snk, 1, 0)
	b.Connect(src, 0, up, 0)
	b.Connect(up, 0, bad, 0)
	b.Connect(bad, 0, w, 0)
	b.Connect(w, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// One worker thread: nobody else holds the run's interior locks, so
	// every data batch that reaches Bad — through Up's flush or off Bad's
	// queue — commits, keeping the FusedRuns assertion below robust under
	// -race timing.
	s := runGraph(t, g, Config{MaxThreads: 1, QuarantineAfter: 1 << 30}, 1)
	fs := s.Faults()
	if fs.OpPanics != n/interval {
		t.Errorf("OpPanics = %d, want %d", fs.OpPanics, n/interval)
	}
	if got, want := snk.Count(), uint64(n-n/interval); got != want {
		t.Errorf("sink saw %d tuples, want %d", got, want)
	}
	if got := snk.Count() + fs.DeadLetters; got != n {
		t.Errorf("delivered %d + dead-lettered %d = %d, want %d", snk.Count(), fs.DeadLetters, got, n)
	}
	v := s.Stats().VM
	if v.FusedRuns == 0 {
		t.Errorf("fused dispatch never fired, containment path untested: %+v", v)
	}
	if v.VecBatches+v.VecFallbacks != v.FusedRuns {
		t.Errorf("vec batches %d + fallbacks %d != fused runs %d", v.VecBatches, v.VecFallbacks, v.FusedRuns)
	}
}

// TestVecComputePanicReplaysScalar exercises the fall-back seam
// deterministically, without depending on which batches the live
// scheduler happens to commit fused: a batch holding a faulting tuple
// must abort the vectorized compute phase with zero emissions, and the
// scalar replay of that same batch must reproduce the per-tuple panic
// set and attribution exactly.
func TestVecComputePanicReplaysScalar(t *testing.T) {
	const interval = 5
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: 1}, 0, 1)
	bad := b.AddNode(&seqPanicky{
		name:     "Bad",
		interval: interval,
		prog:     panicProgram(t, "Bad", interval),
	}, 1, 1)
	w := b.AddNode(&ops.Worker{Prog: ops.WorkerProgram("W", 0)}, 1, 1)
	sn := b.AddNode(&ops.Sink{}, 1, 0)
	b.Connect(src, 0, bad, 0)
	b.Connect(bad, 0, w, 0)
	b.Connect(w, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{MaxThreads: 1})
	var fr *fusedRun
	for _, r := range s.fusedRuns {
		if r != nil {
			fr = r
		}
	}
	if fr == nil {
		t.Fatal("no fused run was built")
	}
	if fr.vec == nil {
		t.Fatal("the panic program did not vectorize; the replay seam is unreachable")
	}

	batch := make([]tuple.Tuple, 16)
	for i := range batch {
		batch[i] = tuple.Tuple{Seq: uint64(i + 1)} // seq 5, 10, 15 fault
	}
	if s.vecCompute(fr, batch, 0, 0) {
		t.Fatal("vectorized compute succeeded on a batch with faulting rows")
	}
	if row := fr.bm.FaultRow(); row != 4 {
		t.Errorf("FaultRow = %d, want 4 (the first seq%%%d == 0 row)", row, interval)
	}
	if fr.bm.CurSeg() != 0 {
		t.Errorf("CurSeg = %d, want 0 (the Bad segment)", fr.bm.CurSeg())
	}
	// The abort is metered apart from ordinary declines: a recurring
	// compute panic means every such batch runs twice (vec + replay).
	if got := s.vms.VecAborts.Total(); got != 1 {
		t.Errorf("VecAborts = %d after one aborted compute, want 1", got)
	}

	// The replay: per-tuple scalar runs over the same machine the
	// scheduler would use, with per-tuple containment. Exactly the
	// seq%interval rows panic, everything else flows through, and each
	// panic is attributed to the Bad segment.
	fr.mach.Reset(fr.prog)
	var delivered []uint64
	panics := 0
	for i := range batch {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics++
					if fr.mach.CurSeg() != 0 {
						t.Errorf("scalar replay blamed segment %d, want 0", fr.mach.CurSeg())
					}
				}
			}()
			fr.mach.Run(fr.prog, batch[i], vm.EmitFunc(func(o tuple.Tuple) {
				delivered = append(delivered, o.Seq)
			}))
		}()
	}
	if panics != 3 {
		t.Errorf("scalar replay panicked %d times, want 3", panics)
	}
	want := []uint64{1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14, 16}
	if len(delivered) != len(want) {
		t.Fatalf("replay delivered %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Fatalf("replay delivered %v, want %v", delivered, want)
		}
	}
}

// procCounted is a programmed forwarding worker that counts its Process
// calls. Fused dispatch never calls Process, so an operator's executions
// (OperatorCounts) minus its calls is exactly what ran in fused form.
type procCounted struct {
	ops.Worker
	calls atomic.Uint64
}

func (p *procCounted) Process(out graph.Submitter, t tuple.Tuple, port int) {
	p.calls.Add(1)
	p.Worker.Process(out, t, port)
}

// countedPipelineGraph is src -> depth procCounted workers (W1..Wdepth)
// of the given cost -> snk.
func countedPipelineGraph(t *testing.T, src graph.Operator, depth, cost int, snk graph.Operator) (*graph.Graph, []*procCounted) {
	t.Helper()
	b := graph.NewBuilder()
	prev := b.AddNode(src, 0, 1)
	ws := make([]*procCounted, depth)
	for i := range ws {
		name := fmt.Sprintf("W%d", i+1)
		ws[i] = &procCounted{Worker: ops.Worker{OpName: name, Cost: cost, Prog: ops.WorkerProgram(name, cost)}}
		n := b.AddNode(ws[i], 1, 1)
		b.Connect(prev, 0, n, 0)
		prev = n
	}
	b.Connect(prev, 0, b.AddNode(snk, 1, 0), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ws
}

// requireInOrder fails unless the order sink saw exactly 0..n-1 in order.
func requireInOrder(t *testing.T, seen []uint64, n int) {
	t.Helper()
	if len(seen) != n {
		t.Fatalf("sink saw %d tuples, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("position %d: tuple %d out of order", i, v)
		}
	}
}

// TestFusedAtDequeueWhenSourceOutruns: an unpaced generator keeps the
// first worker's queue occupied, so no push ever finds it empty and
// every batch reaches the run through a dequeue. The fused program must
// still be the path the runtime takes — at least nine in ten tuples go
// through a fused run — with every operator executing every tuple exactly
// once and delivery in order.
//
// The share of *executions* that are fused is timing-dependent and only
// floored here: a thread walking its free-port shard try-locks the empty
// interior ports on its way, and a root commit that loses one of those
// try-locks declines; the entry operator then runs per operator on one
// thread while another drains the rest of the run fused off the interior
// queue — pipelining, which the scheduler exists to allow — until that
// queue runs empty. Observed 0.74–1.0 (median 1.0) on two cores, against
// under 0.1 before dequeue fusion; TestFusedOnSourceThreadSelfHelp pins
// the contention-free case at exactly 1, and `make fused-smoke` gates the
// ledger workload at 0.9.
func TestFusedAtDequeueWhenSourceOutruns(t *testing.T) {
	const n, depth = 100000, 6
	for threads := 1; threads <= 2; threads++ {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			var mu sync.Mutex
			var seen []uint64
			g, ws := countedPipelineGraph(t, &ops.Generator{Limit: n}, depth, 0, newOrderSink(&mu, &seen))
			s := runGraph(t, g, Config{MaxThreads: 2}, threads)
			requireInOrder(t, seen, n)
			got := s.OperatorCounts()
			want := map[string]uint64{"Src": 0, "Snk": n}
			for _, w := range ws {
				want[w.Name()] = n
			}
			if len(got) != len(want) {
				t.Errorf("operator counts %v, want %v", got, want)
			}
			for name, w := range want {
				if got[name] != w {
					t.Errorf("%s executed %d times, want %d", name, got[name], w)
				}
			}
			v := s.Stats().VM
			if v.FusedTuples < n*9/10 {
				t.Errorf("%d of %d tuples took a fused run, want >= 0.9: %+v", v.FusedTuples, n, v)
			}
			var perOp uint64
			for _, w := range ws {
				perOp += w.calls.Load()
			}
			if frac := 1 - float64(perOp)/float64(n*depth); frac < 0.5 {
				t.Errorf("fused share of programmed executions = %.3f, want >= 0.5 (%d of %d ran Process; VM %+v)",
					frac, perOp, n*depth, v)
			}
			if ds := s.Stats().Chain.DepthStops; ds != 0 {
				t.Errorf("DepthStops = %d on a pipeline shorter than chainDepth", ds)
			}
		})
	}
}

// TestFusedMixedDrainKeepsOrder is the regression test for the mixed
// drain: window marks every `per` tuples make some batches of a drain
// decline (punctuation runs per operator) while their neighbours commit
// fused. The declined batch's output sits coalesced in the drain context
// until it is flushed; a fused batch that ran before that flush would
// overtake it. The recorder must see every data tuple in order with
// every mark in position, on queues small enough that source and
// scheduler threads both drain through reSchedule.
func TestFusedMixedDrainKeepsOrder(t *testing.T) {
	const windows, per, depth = 1500, 50, 4
	for name, cfg := range map[string]Config{
		"default":    {MaxThreads: 2},
		"queue-full": {MaxThreads: 2, QueueCap: 8},
	} {
		t.Run(name, func(t *testing.T) {
			rec := &streamRecorder{}
			g, _ := countedPipelineGraph(t, &markedSource{windows: windows, per: per}, depth, 0, rec)
			s := runGraph(t, g, cfg, 2)
			if got, want := len(rec.events), windows*(per+1); got != want {
				t.Fatalf("recorder saw %d events, want %d", got, want)
			}
			next := uint64(0)
			for i, ev := range rec.events {
				if i%(per+1) == per {
					if ev != windowMark {
						t.Fatalf("event %d: data tuple %d where a window mark belongs", i, ev)
					}
					continue
				}
				if ev != next {
					t.Fatalf("event %d: tuple %d, want %d (overtaken or out of position)", i, ev, next)
				}
				next++
			}
			v := s.Stats().VM
			if v.FusedRuns == 0 || v.Fallbacks == 0 {
				t.Errorf("drains did not mix fused and declined batches: %+v", v)
			}
			if name == "queue-full" && s.Reschedules() == 0 {
				t.Error("capacity-8 queues never pushed anyone into reSchedule")
			}
			if ds := s.Stats().Chain.DepthStops; ds != 0 {
				t.Errorf("DepthStops = %d: a reSchedule frame's fused tail must stay a never-chains frame", ds)
			}
		})
	}
}

// TestFusedOnSourceThreadSelfHelp: with no scheduler thread running, the
// source thread fills the first queue and then moves every tuple itself
// through reSchedule's self-help drain — a frame with no Thread and
// chainLeft -1. That drain must execute the fused program (nothing in
// its preconditions needs a Thread), must not turn its tail into a
// depth-exhausted frame, and must keep order.
func TestFusedOnSourceThreadSelfHelp(t *testing.T) {
	const n, depth = 20000, 4
	var mu sync.Mutex
	var seen []uint64
	g, ws := countedPipelineGraph(t, &ops.Generator{Limit: n}, depth, 0, newOrderSink(&mu, &seen))
	s := New(g, Config{MaxThreads: 1, QueueCap: 8})
	src := g.SourceNodes[0]
	src.Op.(graph.Source).Run(s.SourceSubmitter(src, 0), make(chan struct{}))
	// Everything that has executed so far executed on this goroutine.
	v := s.Stats().VM
	if v.FusedRuns == 0 {
		t.Fatalf("the source thread's self-help drains never ran the fused program: %+v", v)
	}
	var perOp uint64
	for _, w := range ws {
		perOp += w.calls.Load()
	}
	if perOp != 0 {
		t.Errorf("%d Process calls on an idle, punctuation-free pipeline: every self-help batch should commit", perOp)
	}
	s.SourceDone(src, 0)
	s.Start(1)
	s.Wait()
	requireInOrder(t, seen, n)
	if got, want := s.Executed(), uint64(n*(depth+1)); got != want {
		t.Errorf("Executed = %d, want %d", got, want)
	}
	if ds := s.Stats().Chain.DepthStops; ds != 0 {
		t.Errorf("DepthStops = %d, want 0", ds)
	}
}

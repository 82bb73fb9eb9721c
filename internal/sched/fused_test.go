package sched

import (
	"runtime"
	"sync"
	"testing"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// progPipelineGraph is pipelineGraph with a bytecode program attached to
// every worker, so chainable runs are eligible for fused dispatch.
func progPipelineGraph(t *testing.T, depth int, limit uint64, cost int, snk *ops.Sink) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: limit}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		n := b.AddNode(&ops.Worker{Cost: cost, Prog: ops.WorkerProgram("W", cost)}, 1, 1)
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

// paceSource holds g's generator at every batch boundary until the sink
// has counted every tuple generated before it, so each source batch
// meets an idle pipeline. An unpaced generator outruns two scheduler
// threads on a small host: the source thread then moves the tuples
// itself through reSchedule self-help frames, which never chain, every
// interior queue is occupied when a scheduler thread gets there, and
// fused dispatch legitimately never fires — which is not what the
// "fires" tests below are about. Only for runs that lose no tuple.
func paceSource(g *graph.Graph, snk *ops.Sink) {
	gen := g.SourceNodes[0].Op.(*ops.Generator)
	gen.Payload = func(i uint64) tuple.Tuple {
		for i%graph.SourceBatch == 0 && snk.Count() < i {
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

// TestDisableVecAblation runs the fused matrix both ways: identical
// delivery, order and execution counts with vectorization on and off,
// and under -novec not a single vec meter moves while fused dispatch
// itself keeps running — the ablation isolates exactly one mechanism.
func TestDisableVecAblation(t *testing.T) {
	const n, depth = 20000, 10
	run := func(cfg Config) ([]uint64, uint64, metrics.VMSnapshot) {
		var mu sync.Mutex
		var seen []uint64
		snk := newOrderSink(&mu, &seen)
		g := progPipelineGraph(t, depth, n, 0, snk)
		paceSource(g, snk)
		s := runGraph(t, g, cfg, 2)
		return seen, s.Executed(), s.Stats().VM
	}
	vecSeen, vecExec, vecVM := run(Config{MaxThreads: 4})
	novSeen, novExec, novVM := run(Config{MaxThreads: 4, DisableVec: true})
	if len(vecSeen) != n || len(novSeen) != n {
		t.Fatalf("delivery differs: vec %d, novec %d, want %d", len(vecSeen), len(novSeen), n)
	}
	for i := range vecSeen {
		if vecSeen[i] != novSeen[i] {
			t.Fatalf("position %d: vec delivered %d, novec %d", i, vecSeen[i], novSeen[i])
		}
	}
	if vecExec != novExec {
		t.Errorf("Executed diverges across the ablation: vec %d, novec %d", vecExec, novExec)
	}
	if novVM.VecBatches != 0 || novVM.VecRows != 0 || novVM.VecFallbacks != 0 {
		t.Errorf("vec meters moved under DisableVec: %+v", novVM)
	}
	if novVM.FusedRuns == 0 {
		t.Errorf("fused dispatch stopped under DisableVec; the ablation must only remove vectorization: %+v", novVM)
	}
	if vecVM.VecBatches == 0 {
		t.Errorf("control run never vectorized; ablation compares nothing: %+v", vecVM)
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
// intact — exactly the containment the per-operator path gives. Chains
// only commit at ports flushed from worker contexts (sources have no
// thread), so a plain worker sits upstream of the panicking operator to
// make its port a fused-run entry. The panicking operator is then the
// run's first segment, whose input stream is always sequence-stamped,
// so both dispatch forms agree on the panic set.
func TestFusedPanicContainment(t *testing.T) {
	const n, interval = 10000, 250
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	up := b.AddNode(&ops.Worker{OpName: "Up", Prog: ops.WorkerProgram("Up", 0)}, 1, 1)
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
	// One worker thread: the panicking node's queue is drained only by
	// the thread that just flushed to it, so it is empty at every flush
	// and the chain (hence the fused run) commits deterministically —
	// keeping the FusedRuns assertion below robust under -race timing.
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

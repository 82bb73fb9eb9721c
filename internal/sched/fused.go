package sched

import (
	"slices"

	"streams/internal/graph"
	"streams/internal/trace"
	"streams/internal/tuple"
	"streams/internal/vm"
)

// Fused superinstruction dispatch (DESIGN.md "Operator bytecode &
// superinstruction fusion"). When every operator along a chainable run
// carries a bytecode program (vm.Programmed), the programs fuse at
// startup into one multi-segment program. A batch at the run's entry
// port — arriving through a chain link, or drained from the port's queue
// — can then execute the whole run in a single dispatch loop per tuple:
// no per-operator Process calls, no Submitter hops, no per-operator
// batch flushes — values move between operators through VM slots. The
// per-operator path remains the fallback whenever any precondition
// fails, metered so the trade is observable.

// fusedRun is one precomputed run: the fused program, the ports it
// spans in chain order, and the owning node per segment (for panic
// attribution and per-node execution counters). The machine and
// emitter are reused across batches; exclusive use is guaranteed
// because executing the run requires holding every spanned port's
// consumer lock, including the entry port's.
type fusedRun struct {
	prog  *vm.Program
	ports []int32
	nodes []*graph.Node
	mach  vm.Machine
	emit  fusedEmitter
	// vec is the vectorized plan for prog, nil when the program is not
	// vectorizable (or vectorization is disabled); bm executes it.
	vec *vm.VecProgram
	bm  vm.BatchMachine
}

// fusedEmitter adapts the last node's execution context to vm.Emitter:
// final-segment emissions submit on output port 0, flowing through the
// normal routing, sequencing and coalescing machinery.
type fusedEmitter struct{ ec *ctx }

// Emit implements vm.Emitter.
func (e *fusedEmitter) Emit(t tuple.Tuple) { e.ec.Submit(t, 0) }

// buildFusedRuns precomputes the fused run (if any) rooted at every
// chainable port. A run extends while the current node has a program,
// exactly one output port with exactly one subscriber, and that
// subscriber port is itself chainable with a programmed operator —
// the same shape the inline chain path exploits, so fusion piggybacks
// on chaining's locking discipline. Run length is capped at the chain
// depth (a fused run shorter than 2 is pointless).
func (s *Scheduler) buildFusedRuns() {
	s.fusedRuns = make([]*fusedRun, len(s.g.Ports))
	progOf := func(n *graph.Node) *vm.Program {
		if pr, ok := n.Op.(vm.Programmed); ok {
			return pr.VMProgram()
		}
		return nil
	}
	nProgs := 0
	for _, n := range s.g.Nodes {
		if progOf(n) != nil {
			nProgs++
		}
	}
	if nProgs > 0 {
		s.vms.Programs.Add(0, uint64(nProgs))
	}
	// @parallel replicas share their program, so the runs rooted at the
	// replicas of one stage fuse the same programs: fuse and plan each
	// distinct sequence once. Programs and plans are immutable; the
	// machines that run them are per run.
	type fusedPlan struct {
		progs []*vm.Program
		fused *vm.Program
		vec   *vm.VecProgram
	}
	var plans []fusedPlan
	for _, entry := range s.g.Ports {
		if !entry.Chainable {
			continue
		}
		var progs []*vm.Program
		var ports []int32
		var nodes []*graph.Node
		p := entry
		for len(progs) < chainDepth {
			prog := progOf(p.Node)
			if prog == nil || p.Node.NumOut != 1 {
				break
			}
			progs = append(progs, prog)
			ports = append(ports, int32(p.ID))
			nodes = append(nodes, p.Node)
			dests := p.Node.Outs[0]
			if len(dests) != 1 {
				break
			}
			next := s.g.Ports[dests[0]]
			if !next.Chainable {
				break
			}
			p = next
		}
		if len(progs) < 2 {
			continue
		}
		pi := slices.IndexFunc(plans, func(pl fusedPlan) bool { return slices.Equal(pl.progs, progs) })
		if pi < 0 {
			pl := fusedPlan{progs: progs}
			if fused, err := vm.Fuse(progs); err == nil {
				pl.fused = fused
				// Vectorizability is decided once per fused program; a nil
				// plan (side-effectful builtins, loops, multi-emit segments,
				// lists) keeps the run on the scalar dispatch loop.
				if vp, err := vm.PlanVec(fused); err == nil {
					pl.vec = vp
				}
			}
			pi, plans = len(plans), append(plans, pl)
		}
		if pl := plans[pi]; pl.fused != nil {
			s.fusedRuns[entry.ID] = &fusedRun{prog: pl.fused, vec: pl.vec, ports: ports, nodes: nodes}
		}
	}
}

// tryFused attempts to execute batch through the fused run rooted at
// its destination port. It has three call sites, and at each the caller
// already holds the entry port's consumer lock with nothing of that
// port's streams left ahead of batch: tryChain at a push (queue observed
// empty; c is the upstream frame, mid-flush), and schedule's and
// reSchedule's drain loops at a dequeue (batch just popped from the
// queue; c is the entry port's own drain context, atDequeue set).
// tryFused extends that commitment to the whole run — locks and empty
// queues on every interior port, the budget covering every link, no
// punctuation in the batch, no chaos injector (faults must flow through
// the per-operator seams), no quarantined node (dead-lettering is
// per-operator) — and declines to the per-operator path otherwise,
// charging the fall-back meter.
//
// The invariant argument is the chain path's, run-wide: all spanned
// ports' consumer locks are held with queues empty, so per-stream FIFO
// and exclusivity hold for every interior hop; interior streams have
// exactly one subscriber each, so skipping their sequence stamps is
// unobservable — an interior segment's load.seq reads the entry tuple's
// stamp instead of a re-stamped one, and production programs only use
// load.seq as a spin.work seed whose result is popped
// (ops.WorkerProgram, spl's compileWorkVM); and the lock order is
// strictly downstream, so no wait cycle can form (try-locks everywhere
// regardless).
func (s *Scheduler) tryFused(c *ctx, fr *fusedRun, port int32, batch []tuple.Tuple, atDequeue bool) bool {
	tid := c.tid
	own := c.own
	nSegs := len(fr.ports)
	if !s.lockFusedRun(c, fr, batch, atDequeue) {
		s.vms.Fallbacks.Add(tid, 1)
		return false
	}

	// Committed: every precondition holds, every lock is held.
	s.vms.FusedRuns.Add(tid, 1)
	s.vms.FusedTuples.Add(tid, uint64(len(batch)))
	if s.tr.On() {
		s.tr.Emit(tid, trace.KindVMFuse, trace.PackPair(int32(nSegs), uint32(port)))
	}
	// As in executeBatch: the watchdog and the suspension accounting read
	// active, and a dequeue call is a top-level execution.
	wasActive := own.active.Swap(true)
	lastP := s.g.Ports[fr.ports[nSegs-1]]
	ec := s.acquireCtx(lastP, tid, c.thr)
	// The tail frame keeps what the run's links leave of c's link budget.
	// At a push the entry port is itself one link down from c; at a
	// dequeue c is the entry frame. A reSchedule frame (-1) never chains
	// and neither does its tail: clamping it to 0 would make it a
	// depth-exhausted frame and mis-charge DepthStops.
	links := nSegs
	if atDequeue {
		links--
	}
	if ec.chainLeft = c.chainLeft; ec.chainLeft >= 0 {
		ec.chainLeft = max(ec.chainLeft-links, 0)
	}
	fr.emit.ec = ec
	var counts []uint64
	if fr.vec != nil && len(batch) >= fr.prog.VecMinBatch() && s.runVecBatch(fr, batch, tid, port) {
		s.vms.VecBatches.Add(tid, 1)
		s.vms.VecRows.Add(tid, uint64(len(batch)))
		if s.tr.On() {
			s.tr.Emit(tid, trace.KindVMVec, trace.PackPair(int32(len(batch)), uint32(port)))
		}
		counts = fr.bm.SegCounts()
	} else {
		// Scalar dispatch: no plan, batch under the program's cutoff,
		// or a panic during vectorized compute — which performed no
		// emissions, so replaying the whole batch tuple-at-a-time
		// reproduces scalar values, ordering, SegCounts and per-tuple
		// panic attribution exactly. The compute-panic case is also
		// metered separately (VecAborts, charged in vecCompute) so
		// recurring per-batch faults — which pay vec compute AND the
		// scalar replay — are distinguishable from benign declines.
		s.vms.VecFallbacks.Add(tid, 1)
		fr.mach.Reset(fr.prog)
		for i := range batch {
			s.runFusedTuple(fr, batch[i], tid)
		}
		counts = fr.mach.SegCounts()
	}
	total := s.ChargeRun(tid, fr.nodes, counts)
	own.chainBudget = max(own.chainBudget-int(total), 0)
	own.heartbeat.Add(1)
	// Flush the last node's submissions (possibly opening further chain
	// links past the run) before the interior locks release.
	ec.endCoalesce()
	for i := nSegs - 1; i > 0; i-- {
		s.queues[fr.ports[i]].ConsUnlock()
	}
	fr.emit.ec = nil
	s.releaseCtx(ec)
	own.active.Store(wasActive)
	return true
}

// lockFusedRun checks tryFused's preconditions and, when all of them
// hold, returns true with every interior port's consumer lock held. The
// order is cheapest-first, because at a dequeue declines are routine
// (any run whose downstream is backed up declines every batch): nothing
// is flushed and no lock is touched until the thread-local tests and an
// unlocked peek of the interior queues say the commit will likely hold.
// The peek is only a hint; the locked empty-queue test stays the guard.
func (s *Scheduler) lockFusedRun(c *ctx, fr *fusedRun, batch []tuple.Tuple, atDequeue bool) bool {
	if s.inj != nil {
		return false
	}
	// A source frame's drains (reSchedule, at a dequeue) are bounded by
	// reschedLimit instead of the allowance, which only its push-time
	// commits draw on. Tested before the flush below, which may chain and
	// draw on the allowance: what it moves is the previous batch's work.
	if (c.thr != nil || !atDequeue) && len(batch)*len(fr.ports) > c.own.chainBudget {
		return false
	}
	for i := range batch {
		if batch[i].Kind != tuple.Data {
			return false
		}
	}
	interior := fr.ports[1:]
	for _, pid := range interior {
		if s.queues[pid].Queue().Len() != 0 {
			return false
		}
	}
	for _, n := range fr.nodes {
		if s.Quarantined(n.ID) {
			return false
		}
	}
	if atDequeue {
		// The drain context may still hold tuples an earlier, declined
		// batch of this drain coalesced for the first interior port; they
		// must get there before this batch runs past it. Flush before
		// taking that port's lock: the flush's own chain attempt needs
		// the (non-re-entrant) lock, and would otherwise lose it, enqueue,
		// and be overtaken. If the flush lands them in the queue, the
		// locked test below declines.
		c.endCoalesce()
	}
	for i, pid := range interior {
		q := s.queues[pid]
		if q.ConsTryLock() {
			if q.Queue().Len() == 0 {
				continue
			}
			q.ConsUnlock()
		}
		for _, held := range interior[:i] {
			s.queues[held].ConsUnlock()
		}
		return false
	}
	return true
}

// runFusedTuple pushes one tuple through the fused program under panic
// containment: a panicking segment dead-letters the tuple and strikes
// the segment's operator — the same attribution the per-operator path
// gives — without unwinding the batch.
func (s *Scheduler) runFusedTuple(fr *fusedRun, t tuple.Tuple, tid int) {
	defer func() {
		if r := recover(); r != nil {
			s.ContainPanic(tid, fr.nodes[fr.mach.CurSeg()], r, true)
		}
	}()
	fr.mach.Run(fr.prog, t, &fr.emit)
}

// runVecBatch executes one batch through the vectorized plan. The two
// phases have different failure policies, set by BatchMachine's
// no-emissions-before-panic contract: a compute panic (division by
// zero, a builtin fault, speculation down an if-converted branch)
// aborts with the world untouched and returns false so tryFused
// replays the batch scalar; an emission panic is a downstream fault
// past the point of no return, contained against the faulting row's
// segment exactly as the scalar path contains it, and the emit loop
// resumes with the next row.
func (s *Scheduler) runVecBatch(fr *fusedRun, batch []tuple.Tuple, tid int, port int32) bool {
	if !s.vecCompute(fr, batch, tid, port) {
		return false
	}
	for !s.vecEmit(fr, tid) {
	}
	return true
}

// vecCompute is the replayable phase: decode, lane execution, filters.
// A recovered panic is metered (VecAborts) and traced (vm-vec-abort)
// before the scalar replay, so "this program never vectorizes" and
// "this batch aborted mid-compute and ran twice" stay distinguishable.
func (s *Scheduler) vecCompute(fr *fusedRun, batch []tuple.Tuple, tid int, port int32) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			s.vms.VecAborts.Add(tid, 1)
			if s.tr.On() {
				s.tr.Emit(tid, trace.KindVMVecAbort, trace.PackPair(int32(len(batch)), uint32(port)))
			}
		}
	}()
	fr.bm.Reset(fr.vec)
	fr.bm.Run(batch)
	return true
}

// vecEmit delivers surviving rows; returns true when all are out.
func (s *Scheduler) vecEmit(fr *fusedRun, tid int) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			s.ContainPanic(tid, fr.nodes[fr.bm.CurSeg()], r, true)
		}
	}()
	fr.bm.EmitRows(&fr.emit)
	return true
}

package pe

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/exec"
	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/lfq"
	"streams/internal/tuple"
)

// dedicatedRunner implements the dedicated threading model: a threaded
// port between every pair of operators, i.e. one thread and one queue per
// operator input port (§2.2). In the common case each queue has a single
// producer and its single dedicated consumer, so the handoff is the
// synchronization-free SPSC fast path; the producer lock only matters for
// fan-in ports. Producers block (with back-off) when a queue fills —
// dedicated threads never execute other operators' work, which is
// exactly why the model over-subscribes the machine when operators
// outnumber cores.
type dedicatedRunner struct {
	g      *graph.Graph
	core   *exec.Core
	queues []*lfq.Enforcer[tuple.Tuple]
	inj    *fault.Injector // the queue-push seam; nil when chaos is off
	stamp  bool            // latency measurement is on

	stop atomic.Bool
	wg   sync.WaitGroup
}

const dedicatedBackoffMax = 10 * time.Millisecond

func newDedicatedRunner(g *graph.Graph, core *exec.Core, queueCap int, inj *fault.Injector, stamp bool) *dedicatedRunner {
	r := &dedicatedRunner{
		g:      g,
		core:   core,
		queues: make([]*lfq.Enforcer[tuple.Tuple], len(g.Ports)),
		inj:    inj,
		stamp:  stamp,
	}
	for i := range r.queues {
		r.queues[i] = lfq.NewEnforcer[tuple.Tuple](queueCap)
	}
	return r
}

func (r *dedicatedRunner) start() error {
	for _, p := range r.g.Ports {
		r.wg.Add(1)
		go func(p *graph.InPort) {
			defer r.wg.Done()
			r.portLoop(p)
		}(p)
	}
	return nil
}

// portLoop is one dedicated thread: consume the port's queue forever in
// batches, backing off exponentially while it is empty, until the port
// closes or the PE shuts down. Batching reuses the scheduler's batch
// drain idea: one acquire refresh and one release store of the queue
// indices, and one counter charge, per batch instead of per tuple.
func (r *dedicatedRunner) portLoop(p *graph.InPort) {
	q := r.queues[p.ID].Queue() // sole consumer: no consumer lock needed
	buf := make([]tuple.Tuple, min(q.Cap(), graph.BatchSize))
	ec := &dedicatedCtx{r: r, node: p.Node}
	delay := time.Microsecond
	for {
		if n := q.PopN(buf); n > 0 {
			delay = time.Microsecond
			r.core.Execute(ec, p.ID, p, buf[:n])
			if r.core.PortClosed(int32(p.ID)) {
				return // closed by its last final punctuation
			}
			continue
		}
		if r.stop.Load() {
			return
		}
		time.Sleep(delay)
		if delay < dedicatedBackoffMax {
			delay *= 10
		}
	}
}

// dedicatedCtx routes submissions with blocking pushes.
type dedicatedCtx struct {
	r    *dedicatedRunner
	node *graph.Node
	// stamp marks source submitters when latency measurement is on; see
	// the scheduler's ctx.stamp.
	stamp bool
}

// Submit implements graph.Submitter.
func (c *dedicatedCtx) Submit(t tuple.Tuple, outPort int) {
	if c.stamp && t.Kind == tuple.Data {
		t.Stamp = time.Now().UnixNano()
	}
	for _, pid := range c.node.Outs[outPort] {
		t2 := t
		t2.Port = int32(pid)
		c.r.blockingPush(pid, t2)
	}
}

// blockingPush retries until the destination queue accepts the tuple:
// the dedicated model's back-pressure. It yields between attempts so the
// (usually oversubscribed) consumer threads can drain.
func (c *dedicatedRunner) blockingPush(pid int, t tuple.Tuple) {
	c.inj.StallFault()
	q := c.queues[pid]
	spins := 0
	for !q.Push(t) {
		if c.stop.Load() {
			return
		}
		if spins++; spins > 4 {
			time.Sleep(10 * time.Microsecond)
			spins = 0
		} else {
			runtime.Gosched()
		}
	}
}

func (r *dedicatedRunner) sourceSubmitter(i int) graph.Submitter {
	return &dedicatedCtx{r: r, node: r.g.SourceNodes[i], stamp: r.stamp}
}

func (r *dedicatedRunner) sourceDone(i int) {
	exec.Forward(r.sourceSubmitter(i), r.g.SourceNodes[i], tuple.Final())
}

func (r *dedicatedRunner) backlog() int {
	total := 0
	for _, q := range r.queues {
		total += q.Queue().Len()
	}
	return total
}

func (r *dedicatedRunner) shutdown() error {
	r.stop.Store(true)
	r.wg.Wait()
	return nil
}

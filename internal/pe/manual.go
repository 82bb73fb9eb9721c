package pe

import (
	"time"

	"streams/internal/exec"
	"streams/internal/graph"
	"streams/internal/tuple"
)

// manualRunner implements the manual threading model: no scheduler
// threads, no queues, no tuple copies into buffers. Each source thread
// executes its whole downstream subgraph by direct (recursive) function
// calls — submission is synchronous, so by the time Submit returns, every
// downstream operator has fully processed the tuple. This gives the
// lowest latency of the three models and exactly one thread per source
// (§2.2).
type manualRunner struct {
	g    *graph.Graph
	core *exec.Core
	// ctxs[i][node] is source thread i's submitter for node, built once:
	// a context escapes into operator code through the Submitter
	// interface, so building one per call would allocate per tuple per
	// hop. Contexts are immutable, so a node that one thread reaches
	// along several paths may reuse its context.
	ctxs [][]manualCtx
}

func newManualRunner(g *graph.Graph, core *exec.Core, stamp bool) *manualRunner {
	r := &manualRunner{g: g, core: core, ctxs: make([][]manualCtx, len(g.SourceNodes))}
	for i, src := range g.SourceNodes {
		r.ctxs[i] = make([]manualCtx, len(g.Nodes))
		for _, n := range g.Nodes {
			r.ctxs[i][n.ID] = manualCtx{r: r, node: n, tid: i}
		}
		r.ctxs[i][src.ID].stamp = stamp
	}
	return r
}

func (r *manualRunner) start() error { return nil }

// manualCtx is the call-through submitter for one executing node.
type manualCtx struct {
	r    *manualRunner
	node *graph.Node
	tid  int
	// stamp marks source submitters when latency measurement is on; see
	// the scheduler's ctx.stamp.
	stamp bool
}

// Submit implements graph.Submitter by synchronously executing every
// subscribed downstream port as a one-tuple span.
func (c *manualCtx) Submit(t tuple.Tuple, outPort int) {
	if c.stamp && t.Kind == tuple.Data {
		t.Stamp = time.Now().UnixNano()
	}
	ctxs := c.r.ctxs[c.tid]
	span := [1]tuple.Tuple{t}
	for _, pid := range c.node.Outs[outPort] {
		p := c.r.g.Ports[pid]
		c.r.core.Execute(&ctxs[p.Node.ID], c.tid, p, span[:])
	}
}

func (r *manualRunner) sourceSubmitter(i int) graph.Submitter {
	return &r.ctxs[i][r.g.SourceNodes[i].ID]
}

func (r *manualRunner) sourceDone(i int) {
	exec.Forward(r.sourceSubmitter(i), r.g.SourceNodes[i], tuple.Final())
}

func (r *manualRunner) backlog() int    { return 0 }
func (r *manualRunner) shutdown() error { return nil }

// Package exec is the operator-execution core the paper's three
// threading models share (§2.2). The models differ only in which thread
// runs an operator — the source thread (manual), the input port's own
// thread (dedicated) or any scheduler thread (dynamic) — so what running
// an operator means is defined here once: span execution with its
// latency and chaos seams, fault containment, final-punctuation
// accounting, and the execution meters every model reports.
//
// Containment is span-granular: a panic ends the current span, the
// offending tuple is dead-lettered and charged as a strike against its
// operator, and execution resumes with the next tuple. An operator that
// reaches its strike budget is quarantined — its data tuples are
// dead-lettered instead of executed — while punctuation keeps flowing
// past it, so the graph still drains.
package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/trace"
	"streams/internal/tuple"
)

// Options wires a Core to its runtime. Every field but Shards and
// Drained carries a setting of the threading model's own configuration.
type Options struct {
	// Shards sizes the sharded meters; callers charge them under a
	// writer index (tid) per executing thread.
	Shards int
	// QuarantineAfter is how many recovered panics an operator may
	// accumulate before it is quarantined. Default 3.
	QuarantineAfter int
	// Fault, if set, is consulted before every data tuple's Process call.
	Fault *fault.Injector
	// Tracer, if set, records quarantines on the writer's ring.
	Tracer *trace.Tracer
	// Latency, if set, is charged the end-to-end latency of every stamped
	// data tuple that drains at a sink operator.
	Latency *metrics.Histogram
	// Drained, if set, runs once when the last input port closes, just
	// before Done is closed.
	Drained func()
}

// Core executes operators and keeps the state their execution is
// accounted in. It is safe for concurrent use by any number of threads,
// provided no two execute the same input port at once.
type Core struct {
	g       *graph.Graph
	after   int
	inj     *fault.Injector    // nil when chaos is off: the seam is a nil check
	tr      *trace.Tracer      // nil when tracing is off
	latency *metrics.Histogram // nil when latency measurement is off
	drained func()

	// executed counts every tuple processed by every operator — the
	// PE-wide throughput the elasticity algorithm consumes (§5.4 notes
	// Fig. 11 reports exactly this). perNode tracks per-operator
	// execution counts, the product's per-operator metrics.
	executed    *metrics.Counter
	sinkDeliver *metrics.Counter // tuples that reached sink operators
	perNode     []atomic.Uint64

	// Fault containment. faultsSeen flips true on the first recovered
	// panic and gates the per-span quarantine lookup, so fault-free runs
	// never read the quarantine table. strikes and quarantined are
	// per-node.
	faults      *metrics.Faults
	faultsSeen  atomic.Bool
	strikes     []atomic.Int32
	quarantined []atomic.Bool
	lastFault   atomic.Value // string: most recent panic/stall description

	// Final-punctuation accounting.
	remainingProducers []atomic.Int32 // per port: finals still expected
	nodeOpenIns        []atomic.Int32 // per node: input ports still open
	portClosed         []atomic.Bool  // per port: final processed
	openPorts          atomic.Int32   // ports not yet closed
	done               chan struct{}  // closed when openPorts reaches 0
}

// New builds the execution core for g. A graph without input ports is
// drained from the start.
func New(g *graph.Graph, o Options) *Core {
	if o.QuarantineAfter == 0 {
		o.QuarantineAfter = 3
	}
	c := &Core{
		g:                  g,
		after:              o.QuarantineAfter,
		inj:                o.Fault,
		tr:                 o.Tracer,
		latency:            o.Latency,
		drained:            o.Drained,
		executed:           metrics.NewCounter(o.Shards),
		sinkDeliver:        metrics.NewCounter(o.Shards),
		perNode:            make([]atomic.Uint64, len(g.Nodes)),
		faults:             metrics.New[metrics.Faults](o.Shards),
		strikes:            make([]atomic.Int32, len(g.Nodes)),
		quarantined:        make([]atomic.Bool, len(g.Nodes)),
		remainingProducers: make([]atomic.Int32, len(g.Ports)),
		nodeOpenIns:        make([]atomic.Int32, len(g.Nodes)),
		portClosed:         make([]atomic.Bool, len(g.Ports)),
		done:               make(chan struct{}),
	}
	for _, p := range g.Ports {
		c.remainingProducers[p.ID].Store(int32(p.Producers))
	}
	for _, n := range g.Nodes {
		c.nodeOpenIns[n.ID].Store(int32(n.NumIn))
	}
	c.openPorts.Store(int32(len(g.Ports)))
	if len(g.Ports) == 0 {
		c.close()
	}
	return c
}

// Execute runs batch, every tuple of which is destined for input port
// p, on the calling thread: ec is the operators' submitter and tid the
// meter shard. The caller must hold exclusive execution of p. Every
// tuple is executed (or dead-lettered): a panic ends only the span it
// interrupts.
func (c *Core) Execute(ec graph.Submitter, tid int, p *graph.InPort, batch []tuple.Tuple) {
	for off := 0; off < len(batch); {
		off += c.executeSpan(ec, tid, p, batch[off:])
	}
}

// executeSpan runs tuples from span until it is exhausted or an operator
// panics, returning how many tuples were consumed (a panicking tuple
// counts: it already left its queue, and it is dead-lettered by the
// recovery). Counters for tuples executed before a panic are settled by
// the deferred handler, so the drain invariant — every executed tuple
// visible in the counters before Done — survives containment. The
// containment cost on the fault-free path is one defer per span, not
// one per tuple.
func (c *Core) executeSpan(ec graph.Submitter, tid int, p *graph.InPort, span []tuple.Tuple) (consumed int) {
	data := 0
	defer func() {
		if data > 0 {
			c.charge(tid, p.Node, data)
		}
		if r := recover(); r != nil {
			c.ContainPanic(tid, p.Node, r, true)
			consumed++ // the tuple that panicked
		}
	}()
	// Quarantine state is read once per span, not per tuple: faultsSeen
	// stays false forever on a healthy PE, so the fault-free hot loop
	// pays one atomic load per span and never touches the table.
	quarantined := c.Quarantined(p.Node.ID)
	inj := c.inj
	// The latency seam: stamped tuples draining at a sink operator charge
	// the end-to-end histogram. Both tests are hoisted out of the loop so
	// the common case (latency off, or a non-sink node) pays nothing per
	// tuple.
	lat := c.latency
	if p.Node.NumOut != 0 {
		lat = nil
	}
	for i := range span {
		consumed = i
		t := &span[i]
		switch t.Kind {
		case tuple.Data:
			if quarantined {
				c.faults.DeadLetters.Add(tid, 1)
				continue
			}
			if lat != nil && t.Stamp != 0 {
				lat.Record(tid, time.Duration(time.Now().UnixNano()-t.Stamp))
			}
			if inj != nil {
				// Chaos seam: may sleep or panic. It fires before Process,
				// so a panicking tuple has not been partially forwarded and
				// dead-lettering it keeps exact conservation.
				inj.OpFault()
			}
			p.Node.Op.Process(ec, *t, p.Index)
			data++
		case tuple.WindowMark:
			c.safeOnPunct(ec, tid, p, tuple.WindowMark)
			Forward(ec, p.Node, tuple.Window())
		case tuple.FinalMark:
			// Settle the span's counts first: handleFinal can cascade
			// into closing the PE, and every tuple executed before the
			// close must already be visible in the counters by then
			// (Wait returns as soon as the PE closes). Tuples this node
			// already submitted are unaffected: the forwarded final
			// follows them on every output stream.
			if data > 0 {
				c.charge(tid, p.Node, data)
				data = 0
			}
			c.handleFinal(ec, tid, p)
		}
	}
	return len(span)
}

// charge settles n data executions at node into the sharded counters.
func (c *Core) charge(tid int, node *graph.Node, n int) {
	c.executed.Add(tid, uint64(n))
	c.perNode[node.ID].Add(uint64(n))
	if node.NumOut == 0 {
		c.sinkDeliver.Add(tid, uint64(n))
	}
}

// ChargeRun settles executions that ran outside Execute — a fused run,
// where counts[i] tuples executed at nodes[i], none of them a sink —
// and returns their total.
func (c *Core) ChargeRun(tid int, nodes []*graph.Node, counts []uint64) uint64 {
	var total uint64
	for i, n := range nodes {
		c.perNode[n.ID].Add(counts[i])
		total += counts[i]
	}
	c.executed.Add(tid, total)
	return total
}

// ContainPanic records one recovered operator panic: a strike against
// the node (quarantining it at the configured budget), a dead-letter for
// the tuple when one was in flight, and a diagnostic for LastFault.
func (c *Core) ContainPanic(tid int, n *graph.Node, r any, deadLetter bool) {
	c.faultsSeen.Store(true)
	c.faults.OpPanics.Add(tid, 1)
	if deadLetter {
		c.faults.DeadLetters.Add(tid, 1)
	}
	if int(c.strikes[n.ID].Add(1)) == c.after {
		c.quarantined[n.ID].Store(true)
		c.faults.Quarantines.Add(tid, 1)
		if c.tr.On() {
			c.tr.Emit(tid, trace.KindQuarantine, int64(n.ID))
		}
	}
	c.lastFault.Store(fmt.Sprintf("operator %s (node %d) panicked: %v", n.Op.Name(), n.ID, r))
}

// ReportStall records a watchdog stall report by writer tid.
func (c *Core) ReportStall(tid int, desc string) {
	c.faults.WatchdogStalls.Add(tid, 1)
	c.lastFault.Store(desc)
}

// safeOnPunct delivers a punctuation callback to the operator under
// panic containment, skipping quarantined operators entirely. The
// runtime's own forwarding and close bookkeeping are outside this scope
// on purpose: a panicking or quarantined operator must never stop
// punctuation from propagating, or the graph could not drain past it.
func (c *Core) safeOnPunct(ec graph.Submitter, tid int, p *graph.InPort, k tuple.Kind) {
	ph, ok := p.Node.Op.(graph.Puncts)
	if !ok || c.Quarantined(p.Node.ID) {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.ContainPanic(tid, p.Node, r, false)
		}
	}()
	ph.OnPunct(ec, k, p.Index)
}

// safeFinish invokes a Finalizer under the same containment rules as
// safeOnPunct.
func (c *Core) safeFinish(ec graph.Submitter, tid int, n *graph.Node) {
	f, ok := n.Op.(graph.Finalizer)
	if !ok || c.Quarantined(n.ID) {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.ContainPanic(tid, n, r, false)
		}
	}()
	f.Finish(ec)
}

// Forward submits t on every output port of n through ec: how the
// runtime propagates punctuation, and how a finished source emits its
// final punctuation.
func Forward(ec graph.Submitter, n *graph.Node, t tuple.Tuple) {
	for out := 0; out < n.NumOut; out++ {
		ec.Submit(t, out)
	}
}

// handleFinal accounts one final punctuation on port p and closes the
// port, the node, and eventually the graph as the counts drain. The
// operator-facing callbacks (OnPunct, Finish) run under containment and
// are skipped for quarantined operators; the close bookkeeping and the
// downstream forwarding always run.
func (c *Core) handleFinal(ec graph.Submitter, tid int, p *graph.InPort) {
	c.safeOnPunct(ec, tid, p, tuple.FinalMark)
	if c.remainingProducers[p.ID].Add(-1) > 0 {
		return // more streams still feed this port
	}
	c.portClosed[p.ID].Store(true)
	if c.nodeOpenIns[p.Node.ID].Add(-1) == 0 {
		c.safeFinish(ec, tid, p.Node)
		Forward(ec, p.Node, tuple.Final())
	}
	if c.openPorts.Add(-1) == 0 {
		c.close()
	}
}

func (c *Core) close() {
	if c.drained != nil {
		c.drained()
	}
	close(c.done)
}

// Done is closed when every input port has processed its final
// punctuation.
func (c *Core) Done() <-chan struct{} { return c.done }

// PortClosed reports whether port has processed its last final
// punctuation.
func (c *Core) PortClosed(port int32) bool { return c.portClosed[port].Load() }

// Quarantined reports whether the node has been quarantined.
func (c *Core) Quarantined(nodeID int) bool {
	return c.faultsSeen.Load() && c.quarantined[nodeID].Load()
}

// Executed returns the total number of tuples processed across all
// operators.
func (c *Core) Executed() uint64 { return c.executed.Total() }

// SinkDelivered returns the number of tuples delivered to operators with
// no output ports (the end-to-end application throughput of §5.1–5.3).
func (c *Core) SinkDelivered() uint64 { return c.sinkDeliver.Total() }

// Faults returns a snapshot of the fault-containment meters: recovered
// operator panics, dead-lettered tuples, quarantined operators, and
// watchdog stall reports. All zero on a healthy PE.
func (c *Core) Faults() metrics.FaultsSnapshot { return c.faults.Snapshot() }

// LastFault describes the most recent contained fault (a recovered
// panic or a watchdog stall report), or "" when none has occurred.
func (c *Core) LastFault() string {
	v, _ := c.lastFault.Load().(string)
	return v
}

// OperatorCounts returns per-operator execution counts keyed by operator
// name (the product's per-operator metrics). Nodes sharing a name have
// their counts summed.
func (c *Core) OperatorCounts() map[string]uint64 {
	out := make(map[string]uint64, len(c.g.Nodes))
	for _, n := range c.g.Nodes {
		out[n.Op.Name()] += c.perNode[n.ID].Load()
	}
	return out
}

// NodeExecuted fills per-node cumulative execution counts (tuples
// processed by each operator); out must be len(g.Nodes) long.
// Allocation-free, for the observability sampler.
func (c *Core) NodeExecuted(out []uint64) {
	for i := range c.perNode {
		out[i] = c.perNode[i].Load()
	}
}

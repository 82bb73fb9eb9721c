// Package graph models the stream graph a processing element executes:
// operators with input and output ports, connected by typed streams.
//
// The programming model is SPL's asynchronous dataflow (§2.1 of the
// paper): operators communicate exclusively by sending tuples over
// ordered streams, may keep local state, and share no global state. A
// Graph is a static description; packages sched and pe decide how threads
// execute it.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"streams/internal/tuple"
)

// Submitter is how an operator sends result tuples downstream: it routes
// a tuple to every input port subscribed to the given output port. The
// concrete implementation is supplied by the executing runtime (fused
// call for the manual model, queue push for dedicated and dynamic).
type Submitter interface {
	Submit(t tuple.Tuple, outPort int)
}

// BatchSubmitter is implemented by submitters that can take a run of
// tuples for one output port at once (the dynamic scheduler's contexts:
// one sequence-counter add, one clock read and one queue operation per
// subscriber instead of one per tuple). The batch is delivered in slice
// order, exactly as so many Submit calls would. The callee may overwrite
// the runtime-owned fields (Port, Seq, Stamp) of ts in place; the slice
// is the caller's again when the call returns.
type BatchSubmitter interface {
	Submitter
	SubmitBatch(ts []tuple.Tuple, outPort int)
}

// BatchSize is the runtime's one tuple batch size: how many tuples a
// source that produces faster than it is drained gathers before each
// SubmitBatch, and the size of the dynamic scheduler's drain and
// coalescing buffers and of a dedicated port thread's drain, so one
// source call fills one queue batch.
const BatchSize = 32

// SubmitBatch submits ts in order on outPort: through out's SubmitBatch
// when it has one, through one Submit per tuple otherwise (the manual and
// dedicated models, wrapping submitters). Sources call this instead of
// looping over Submit so they have a single code path.
func SubmitBatch(out Submitter, ts []tuple.Tuple, outPort int) {
	if b, ok := out.(BatchSubmitter); ok {
		b.SubmitBatch(ts, outPort)
		return
	}
	for i := range ts {
		out.Submit(ts[i], outPort)
	}
}

// Operator contains the logic for processing incoming tuples. Process is
// invoked with exclusive access to the input port's tuple sequence, but
// NOT necessarily by the same thread every time, and different input
// ports of the same operator may be processed concurrently — exactly the
// contract of the paper's dynamic model. Operators protect their own
// state if they have any.
type Operator interface {
	// Name identifies the operator in diagnostics.
	Name() string
	// Process handles one tuple arriving on input port inPort, submitting
	// any results via out. It must not retain t.Ref beyond the call
	// unless the referenced value is immutable.
	Process(out Submitter, t tuple.Tuple, inPort int)
}

// Source is an operator with no input ports. Sources own their thread
// (the paper's "operator threads" the scheduler cannot control, §2.3):
// Run generates tuples until it returns or stop is closed.
type Source interface {
	Operator
	// Run produces tuples on the operator's output ports until stop is
	// closed or the source is exhausted. It must return promptly once
	// stop is observed.
	Run(out Submitter, stop <-chan struct{})
}

// Puncts is implemented by operators that want to observe punctuation.
// The runtime forwards window and final punctuation automatically whether
// or not an operator implements Puncts.
type Puncts interface {
	// OnPunct observes a punctuation arriving on inPort before the
	// runtime forwards it.
	OnPunct(out Submitter, kind tuple.Kind, inPort int)
}

// Finalizer is implemented by operators that flush state when all their
// input streams have closed (before the runtime forwards the final
// punctuation downstream).
type Finalizer interface {
	Finish(out Submitter)
}

// Node is one operator instance placed in a graph.
type Node struct {
	// ID is the node's index in Graph.Nodes.
	ID int
	// Op is the operator logic.
	Op Operator
	// NumIn and NumOut are the port counts declared at AddNode time.
	NumIn, NumOut int
	// Outs maps each output port index to the global IDs of the input
	// ports subscribed to it, in subscription order.
	Outs [][]int
	// InPorts maps each input port index to its global input-port ID.
	InPorts []int
}

// InPort is one operator input port, the unit the scheduler hands to
// threads. Global input-port IDs index Graph.Ports and the scheduler's
// queuesTable.
type InPort struct {
	// ID is the global input-port ID.
	ID int
	// Node is the owning node.
	Node *Node
	// Index is the port's index within the owning operator.
	Index int
	// Producers is the number of streams subscribed to this port; the
	// runtime counts this many final punctuations before closing it.
	Producers int
	// Chainable marks the port as a valid target for inline chain
	// execution (run-to-completion operator chaining in the dynamic
	// scheduler): the owning operator has exactly one input port, and
	// every stream feeding this port has this port as its only
	// subscriber. Single input port means holding this port's consumer
	// lock serializes all execution of the node, so an inline execution
	// under that lock has the same exclusivity as a queue drain; single
	// subscriber keeps a chained producer from racing ahead of sibling
	// copies of the same stream it has not delivered yet. Precomputed at
	// build time so the scheduler's hot path pays one slice load.
	Chainable bool
}

// Graph is a validated, immutable stream graph.
type Graph struct {
	// Nodes in insertion order; Node.ID indexes this slice.
	Nodes []*Node
	// Ports holds every input port; InPort.ID indexes this slice.
	Ports []*InPort
	// SourceNodes lists the nodes with no input ports.
	SourceNodes []*Node
}

// Builder accumulates nodes and connections and validates them into a
// Graph.
type Builder struct {
	nodes []*Node
	conns []conn
	errs  []error
}

type conn struct {
	fromNode, fromPort, toNode, toPort int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode places an operator with the given port counts and returns its
// node ID. Errors (negative counts, nil operator) are deferred to Build.
func (b *Builder) AddNode(op Operator, numIn, numOut int) int {
	id := len(b.nodes)
	if op == nil {
		b.errs = append(b.errs, fmt.Errorf("graph: node %d has a nil operator", id))
		op = noOp{}
	}
	if numIn < 0 || numOut < 0 {
		b.errs = append(b.errs, fmt.Errorf("graph: node %d (%s) has negative port count", id, op.Name()))
		numIn, numOut = max(numIn, 0), max(numOut, 0)
	}
	b.nodes = append(b.nodes, &Node{ID: id, Op: op, NumIn: numIn, NumOut: numOut})
	return id
}

type noOp struct{}

func (noOp) Name() string                        { return "<nil>" }
func (noOp) Process(Submitter, tuple.Tuple, int) {}

var _ Operator = noOp{}

// Connect subscribes input port (toNode, toPort) to the stream produced
// on output port (fromNode, fromPort). A stream may fan out to many input
// ports, and an input port may subscribe to many streams (fan-in).
func (b *Builder) Connect(fromNode, fromPort, toNode, toPort int) {
	b.conns = append(b.conns, conn{fromNode, fromPort, toNode, toPort})
}

// Build validates the accumulated description and returns the immutable
// Graph. The graph must be a DAG: the dynamic scheduler itself tolerates
// cycles (the paper notes user graphs may have them), but every
// experiment and example in this repository is acyclic, and rejecting
// cycles at build time catches wiring mistakes.
func (b *Builder) Build() (*Graph, error) {
	errs := append([]error(nil), b.errs...)
	for _, c := range b.conns {
		if c.fromNode < 0 || c.fromNode >= len(b.nodes) || c.toNode < 0 || c.toNode >= len(b.nodes) {
			errs = append(errs, fmt.Errorf("graph: connection %+v references unknown node", c))
			continue
		}
		from, to := b.nodes[c.fromNode], b.nodes[c.toNode]
		if c.fromPort < 0 || c.fromPort >= from.NumOut {
			errs = append(errs, fmt.Errorf("graph: node %d (%s) has no output port %d", from.ID, from.Op.Name(), c.fromPort))
		}
		if c.toPort < 0 || c.toPort >= to.NumIn {
			errs = append(errs, fmt.Errorf("graph: node %d (%s) has no input port %d", to.ID, to.Op.Name(), c.toPort))
		}
	}
	if len(errs) > 0 {
		return nil, joinErrors(errs)
	}

	g := &Graph{Nodes: b.nodes}
	for _, n := range g.Nodes {
		n.Outs = make([][]int, n.NumOut)
		n.InPorts = make([]int, n.NumIn)
		for i := 0; i < n.NumIn; i++ {
			p := &InPort{ID: len(g.Ports), Node: n, Index: i}
			n.InPorts[i] = p.ID
			g.Ports = append(g.Ports, p)
		}
		if n.NumIn == 0 {
			if _, ok := n.Op.(Source); !ok {
				errs = append(errs, fmt.Errorf("graph: node %d (%s) has no input ports but does not implement Source", n.ID, n.Op.Name()))
			}
			g.SourceNodes = append(g.SourceNodes, n)
		}
	}
	for _, c := range b.conns {
		from, to := g.Nodes[c.fromNode], g.Nodes[c.toNode]
		pid := to.InPorts[c.toPort]
		from.Outs[c.fromPort] = append(from.Outs[c.fromPort], pid)
		g.Ports[pid].Producers++
	}
	for _, n := range g.Nodes {
		for i := 0; i < n.NumIn; i++ {
			if g.Ports[n.InPorts[i]].Producers == 0 {
				errs = append(errs, fmt.Errorf("graph: node %d (%s) input port %d has no producers", n.ID, n.Op.Name(), i))
			}
		}
		for i := 0; i < n.NumOut; i++ {
			if len(n.Outs[i]) == 0 {
				errs = append(errs, fmt.Errorf("graph: node %d (%s) output port %d has no subscribers", n.ID, n.Op.Name(), i))
			}
		}
	}
	if len(g.SourceNodes) == 0 && len(g.Nodes) > 0 {
		errs = append(errs, fmt.Errorf("graph: no source nodes"))
	}
	if cycle := g.findCycle(); cycle != nil {
		errs = append(errs, fmt.Errorf("graph: cycle through nodes %v", cycle))
	}
	if len(errs) > 0 {
		return nil, joinErrors(errs)
	}
	g.markChainable()
	return g, nil
}

// markChainable precomputes InPort.Chainable: the static half of the
// scheduler's inline chain analysis (the dynamic half — lock, queue
// occupancy, budgets — is checked per flush). A port qualifies when its
// owning operator has a single input port and no stream feeding it fans
// out to other ports; see the field comment for why both matter.
func (g *Graph) markChainable() {
	fanOutFed := make([]bool, len(g.Ports))
	for _, n := range g.Nodes {
		for _, dests := range n.Outs {
			if len(dests) <= 1 {
				continue
			}
			for _, pid := range dests {
				fanOutFed[pid] = true
			}
		}
	}
	for _, p := range g.Ports {
		p.Chainable = p.Node.NumIn == 1 && !fanOutFed[p.ID]
	}
}

func joinErrors(errs []error) error {
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("%s", strings.Join(msgs, "; "))
}

// findCycle returns the node IDs on some cycle, or nil if the graph is
// acyclic.
func (g *Graph) findCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Nodes))
	var stack []int
	var dfs func(n int) []int
	dfs = func(n int) []int {
		color[n] = gray
		stack = append(stack, n)
		for _, succ := range g.succ(n) {
			switch color[succ] {
			case gray:
				// Found a back edge; slice out the cycle.
				for i, v := range stack {
					if v == succ {
						return append([]int(nil), stack[i:]...)
					}
				}
			case white:
				if c := dfs(succ); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return nil
	}
	for n := range g.Nodes {
		if color[n] == white {
			if c := dfs(n); c != nil {
				return c
			}
		}
	}
	return nil
}

// succ returns the distinct successor node IDs of node n, sorted.
func (g *Graph) succ(n int) []int {
	seen := map[int]bool{}
	var out []int
	for _, dests := range g.Nodes[n].Outs {
		for _, pid := range dests {
			id := g.Ports[pid].Node.ID
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	return out
}

// TopoOrder returns the node IDs in a topological order. Build guarantees
// acyclicity, so this always succeeds on a built graph.
func (g *Graph) TopoOrder() []int {
	indeg := make([]int, len(g.Nodes))
	for n := range g.Nodes {
		for _, s := range g.succ(n) {
			indeg[s]++
		}
	}
	var queue, order []int
	for n := range g.Nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range g.succ(n) {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order
}

// MaxInPorts returns the largest number of input ports on any single
// operator. The PE's minimum thread level is one more than this value,
// the paper's deadlock-avoidance rule (§4.2.3).
func (g *Graph) MaxInPorts() int {
	m := 0
	for _, n := range g.Nodes {
		if n.NumIn > m {
			m = n.NumIn
		}
	}
	return m
}

// Stats summarizes the graph for diagnostics.
type Stats struct {
	Nodes, Ports, Streams, Sources, Sinks int
	// Chainable counts the input ports eligible for inline chain
	// execution (see InPort.Chainable).
	Chainable int
}

// Stats computes summary counts.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Ports: len(g.Ports), Sources: len(g.SourceNodes)}
	for _, n := range g.Nodes {
		for _, dests := range n.Outs {
			s.Streams += len(dests)
		}
		if n.NumOut == 0 {
			s.Sinks++
		}
	}
	for _, p := range g.Ports {
		if p.Chainable {
			s.Chainable++
		}
	}
	return s
}

// Dot renders the graph in Graphviz DOT format for documentation and
// debugging.
func (g *Graph) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph stream {\n  rankdir=LR;\n")
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, n.Op.Name())
	}
	for _, n := range g.Nodes {
		for outPort, dests := range n.Outs {
			for _, pid := range dests {
				p := g.Ports[pid]
				fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%d:%d\"];\n", n.ID, p.Node.ID, outPort, p.Index)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Package ops provides the operator library used by the examples, the
// experiment harness and the mini-SPL standard library: sources, sinks,
// filters, user-logic operators, and the synthetic cost-model Worker the
// paper's evaluation is built from (§5: "tuple processing cost is
// measured in floating point operations").
package ops

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/graph"
	"streams/internal/tuple"
	"streams/internal/vm"
)

func init() {
	// spin.work:ii(cost, seed) is the VM form of the Worker/Work body:
	// burn cost flops seeded by the tuple sequence number, absorbing
	// the result exactly like the closure path so the loop survives
	// optimization.
	vm.RegisterBuiltin("spin.work:ii", func(args []vm.Val) vm.Val {
		r := Spin(int(args[0].I)/2, uint64(args[1].I))
		workSink.Add(uint64(r))
		return vm.Val{F: r}
	})
	// The burn is a side effect that is harmless to repeat (workSink
	// only defeats the optimizer), so vectorized execution and its
	// panic-replay fall-back are both safe.
	vm.RegisterBuiltinInfo("spin.work:ii", vm.EffectReplay, vm.KFloat)
}

// Generator is a source that produces tuples as fast as downstream
// operators can absorb them, exactly like the paper's experiment sources.
// Every tuple's first payload word is its sequence number. If Limit is
// non-zero, the source stops after that many tuples (used by tests and
// drain experiments).
type Generator struct {
	// OpName is the diagnostic name; defaults to "Src".
	OpName string
	// Limit optionally bounds the number of generated tuples.
	Limit uint64
	// Payload optionally customizes the tuple for sequence number i.
	Payload func(i uint64) tuple.Tuple
	// Stamp writes the generation time (UnixNano) into the last payload
	// word so a Sink with TrackLatency can measure end-to-end latency
	// (§2.2 compares the threading models’ latency).
	Stamp bool

	produced atomic.Uint64
}

// Name implements graph.Operator.
func (g *Generator) Name() string {
	if g.OpName == "" {
		return "Src"
	}
	return g.OpName
}

// Process implements graph.Operator; sources receive no input.
func (g *Generator) Process(graph.Submitter, tuple.Tuple, int) {}

// Run implements graph.Source. Tuples are generated and submitted a
// batch at a time; stop is polled between batches, so nothing generated
// is ever left unsubmitted.
func (g *Generator) Run(out graph.Submitter, stop <-chan struct{}) {
	buf := make([]tuple.Tuple, 0, graph.BatchSize)
	for i := uint64(0); g.Limit == 0 || i < g.Limit; {
		select {
		case <-stop:
			return
		default:
		}
		for ; len(buf) < cap(buf) && (g.Limit == 0 || i < g.Limit); i++ {
			var t tuple.Tuple
			if g.Payload != nil {
				t = g.Payload(i)
			} else {
				t = tuple.NewData(i)
			}
			if g.Stamp {
				t.Words[tuple.PayloadWords-1] = uint64(time.Now().UnixNano())
			}
			buf = append(buf, t)
		}
		graph.SubmitBatch(out, buf, 0)
		g.produced.Store(i)
		buf = buf[:0]
	}
}

// Produced returns the number of tuples generated so far.
func (g *Generator) Produced() uint64 { return g.produced.Load() }

var (
	_ graph.Source = (*Generator)(nil)
)

// workSink absorbs the result of Spin so the compiler cannot eliminate
// the floating-point loop.
var workSink atomic.Uint64

// Spin performs cost floating-point operations and returns the result.
// It is the synthetic tuple-processing work from the paper's evaluation.
func Spin(cost int, seed uint64) float64 {
	x := float64(seed%1024) + 1.5
	for i := 0; i < cost; i++ {
		x += 1.000001 * x * 0.5 // two flops per iteration, kept dependent
		if x > 1e12 {
			x = math.Mod(x, 997) + 1.5
		}
	}
	return x
}

// Worker applies a fixed floating-point cost to every tuple and forwards
// it unchanged. It is stateless and therefore safe for concurrent
// execution of distinct input-port tuple sequences.
type Worker struct {
	// OpName is the diagnostic name.
	OpName string
	// Cost is the number of floating-point operations per tuple.
	Cost int
	// Prog, when set, lets the scheduler fuse this Worker into a
	// superinstruction chain (see WorkerProgram). Unfused dispatch
	// ignores it: the direct Spin call below is already optimal.
	Prog *vm.Program
}

// VMProgram implements vm.Programmed.
func (w *Worker) VMProgram() *vm.Program { return w.Prog }

// WorkerProgram assembles the bytecode form of a Worker with the given
// cost: push cost and the tuple's sequence number, call spin.work, pop,
// forward. Layouts are empty — the native payload rides in the tuple's
// fixed words, which forwarding segments preserve.
func WorkerProgram(name string, cost int) *vm.Program {
	b := vm.NewBuilder()
	if cost > 0 {
		b.ConstI(int64(cost))
		b.Ins(vm.OpLoadSeq, 0, 0)
		b.Call("spin.work:ii", 2)
		b.Op(vm.OpPop)
	}
	b.Op(vm.OpEmit)
	p, err := b.Finish(vm.Seg{Name: name}, vm.Layout{}, 0)
	if err != nil {
		return nil
	}
	if err := p.Bind(vm.Identity); err != nil {
		return nil
	}
	return p
}

// Name implements graph.Operator.
func (w *Worker) Name() string {
	if w.OpName == "" {
		return "Worker"
	}
	return w.OpName
}

// Process implements graph.Operator.
func (w *Worker) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if w.Cost > 0 {
		workSink.Add(uint64(Spin(w.Cost/2, t.Seq)))
	}
	out.Submit(t, 0)
}

// Sink counts tuples, protecting its local state with a lock exactly as
// the paper's Snk operator does (§5.2): operators may have local state,
// and SPL protects it when multiple threads can execute the operator.
type Sink struct {
	// OpName is the diagnostic name.
	OpName string
	// OnTuple, if set, observes every data tuple (used by examples).
	OnTuple func(t tuple.Tuple)
	// TrackLatency reads the generation stamp a Generator with Stamp
	// wrote and accumulates end-to-end latency statistics.
	TrackLatency bool

	mu         sync.Mutex
	count      uint64
	latSum     time.Duration
	latMax     time.Duration
	latSamples uint64
}

// Name implements graph.Operator.
func (s *Sink) Name() string {
	if s.OpName == "" {
		return "Snk"
	}
	return s.OpName
}

// Process implements graph.Operator.
func (s *Sink) Process(_ graph.Submitter, t tuple.Tuple, _ int) {
	var lat time.Duration
	if s.TrackLatency {
		if stamp := t.Words[tuple.PayloadWords-1]; stamp != 0 {
			lat = time.Duration(uint64(time.Now().UnixNano()) - stamp)
		}
	}
	s.mu.Lock()
	s.count++
	if lat > 0 {
		s.latSum += lat
		s.latSamples++
		if lat > s.latMax {
			s.latMax = lat
		}
	}
	s.mu.Unlock()
	if s.OnTuple != nil {
		s.OnTuple(t)
	}
}

// Latency returns the mean and maximum end-to-end latency observed so
// far (zero when TrackLatency is off or no stamped tuple arrived).
func (s *Sink) Latency() (mean, maxLat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latSamples == 0 {
		return 0, 0
	}
	return s.latSum / time.Duration(s.latSamples), s.latMax
}

// Count returns the number of data tuples seen.
func (s *Sink) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Filter forwards only the tuples for which Pred returns true. A nil
// Pred forwards everything.
type Filter struct {
	// OpName is the diagnostic name.
	OpName string
	// Pred decides whether a tuple passes.
	Pred func(t tuple.Tuple) bool
}

// Name implements graph.Operator.
func (f *Filter) Name() string {
	if f.OpName == "" {
		return "Filter"
	}
	return f.OpName
}

// Process implements graph.Operator.
func (f *Filter) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if f.Pred == nil || f.Pred(t) {
		out.Submit(t, 0)
	}
}

// Custom runs a user function for every tuple, like SPL's Custom
// operator. The function receives the submitter and may emit zero or more
// tuples on any output port.
type Custom struct {
	// OpName is the diagnostic name.
	OpName string
	// Fn is the per-tuple logic.
	Fn func(out graph.Submitter, t tuple.Tuple, inPort int)
}

// Name implements graph.Operator.
func (c *Custom) Name() string {
	if c.OpName == "" {
		return "Custom"
	}
	return c.OpName
}

// Process implements graph.Operator.
func (c *Custom) Process(out graph.Submitter, t tuple.Tuple, inPort int) {
	if c.Fn != nil {
		c.Fn(out, t, inPort)
	}
}

// Functor transforms each tuple with a function, like SPL's Functor. A
// nil Fn forwards tuples unchanged.
type Functor struct {
	// OpName is the diagnostic name.
	OpName string
	// Fn maps an input tuple to the output tuple.
	Fn func(t tuple.Tuple) tuple.Tuple
}

// Name implements graph.Operator.
func (f *Functor) Name() string {
	if f.OpName == "" {
		return "Functor"
	}
	return f.OpName
}

// Process implements graph.Operator.
func (f *Functor) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	if f.Fn != nil {
		t = f.Fn(t)
	}
	out.Submit(t, 0)
}

// RoundRobinSplit distributes incoming tuples across its output ports in
// round-robin order — the splitter @parallel inserts in front of replica
// operators. Tuple order within each output stream follows arrival order,
// preserving the per-stream ordering guarantee.
type RoundRobinSplit struct {
	// OpName is the diagnostic name.
	OpName string
	// Width is the number of output ports.
	Width int

	next atomic.Uint64
}

// Name implements graph.Operator.
func (s *RoundRobinSplit) Name() string {
	if s.OpName == "" {
		return "Split"
	}
	return s.OpName
}

// Process implements graph.Operator.
func (s *RoundRobinSplit) Process(out graph.Submitter, t tuple.Tuple, _ int) {
	w := s.Width
	if w <= 0 {
		w = 1
	}
	out.Submit(t, int((s.next.Add(1)-1)%uint64(w)))
}

// SliceSource replays a fixed slice of tuples, used by tests and the SPL
// FileSource implementation.
type SliceSource struct {
	// OpName is the diagnostic name.
	OpName string
	// Tuples are emitted in order on output port 0.
	Tuples []tuple.Tuple
}

// Name implements graph.Operator.
func (s *SliceSource) Name() string {
	if s.OpName == "" {
		return "SliceSource"
	}
	return s.OpName
}

// Process implements graph.Operator; sources receive no input.
func (s *SliceSource) Process(graph.Submitter, tuple.Tuple, int) {}

// Run implements graph.Source.
func (s *SliceSource) Run(out graph.Submitter, stop <-chan struct{}) {
	for i, t := range s.Tuples {
		select {
		case <-stop:
			return
		default:
		}
		t.Seq = uint64(i)
		out.Submit(t, 0)
	}
}

var _ graph.Source = (*SliceSource)(nil)

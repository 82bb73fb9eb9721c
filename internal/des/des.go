// Package des is a deterministic discrete-event simulator of the
// dynamic operator scheduler. Where internal/sim is an analytic
// throughput model, des executes the paper's *algorithms* step by step —
// the free-list walk with its priming read and abandon-on-seeing-first
// rule, the enforcer try-locks, queue drains, reSchedule self-help and
// exponential back-off — against simulated data structures, with an
// explicit number of hardware contexts and explicit per-action costs.
//
// Because the engine is single-threaded, every shared-structure
// operation is atomic at action granularity and the simulation is fully
// deterministic; the actual interleaving of threads is produced by the
// event clock. That yields what the Go runtime cannot give the native
// scheduler on a small host: precise control of "hardware" parallelism,
// so tests can check policy-level properties (work conservation, per-
// stream ordering, thread scaling, starvation-freedom) at any simulated
// core count.
//
// The simulator executes real graph.Graph topologies; operator work is
// charged per node via a cost function rather than by running operator
// code.
//
// # Regimes
//
// The DES exposes two distinct operating regimes. When the source is
// slower than the pipeline's aggregate capacity, queues run shallow,
// drains terminate, threads rotate through the free list, and adding
// threads adds throughput until the source binds. When the source
// saturates a single deep chain, queues fill end to end, the unbounded
// schedule() drains pin threads to the head ports, and blocked pushes
// serialize the tail through nested reSchedule — throughput stops
// scaling with threads. Width-parallel graphs scale linearly in the
// number of chains regardless, because chains do not share queues.
// Real machines blur the saturated regime through preemption and cache
// stochasticity that a deterministic event clock does not reproduce, so
// treat saturated-pipeline DES results as a worst-case bound rather than
// a prediction.
package des

import (
	"container/heap"
	"fmt"

	"streams/internal/graph"
	"streams/internal/sched"
)

// Costs are the per-action durations (nanoseconds of simulated time).
type Costs struct {
	// FlopNs is charged per unit of a node's Cost.
	FlopNs float64
	// QueueOpNs is one queue push or pop.
	QueueOpNs float64
	// LockNs is one try-lock or unlock of an enforcer flag.
	LockNs float64
	// FreeListNs is one free-list pop or push.
	FreeListNs float64
	// CtxSwitchNs is charged when a thread is rotated onto a core.
	CtxSwitchNs float64
	// SourceNs is charged per generated tuple.
	SourceNs float64
	// BackoffStartNs and BackoffMaxNs bound the exponential back-off
	// (paper: 1µs growing ×10 to 10ms).
	BackoffStartNs, BackoffMaxNs float64
}

// DefaultCosts returns a plausible commodity-server cost set.
func DefaultCosts() Costs {
	return Costs{
		FlopNs:         0.5,
		QueueOpNs:      40,
		LockNs:         15,
		FreeListNs:     60,
		CtxSwitchNs:    2000,
		SourceNs:       30,
		BackoffStartNs: 1e3,
		BackoffMaxNs:   1e7,
	}
}

// Config describes one simulation run.
type Config struct {
	// Cores is the number of hardware contexts.
	Cores int
	// Threads is the number of dynamic scheduler threads.
	Threads int
	// QueueCap is the per-port queue capacity. Default: the real
	// scheduler's, sched.DefaultQueueCap.
	QueueCap int
	// ReschedLimit bounds reSchedule drains; 0 means QueueCap/4.
	ReschedLimit int
	// DrainLimit optionally bounds the schedule()-loop drain, which the
	// paper leaves unbounded ("we can go ahead and pop off and execute
	// all of the tuples from its queue"). The knob exists to experiment
	// with the saturation convoy (see the package notes on regimes):
	// bounding the drain makes threads rotate ports but does not by
	// itself restore pipeline scaling under a saturating source, which
	// is itself an informative negative result. 0 keeps the paper's
	// unbounded drain.
	DrainLimit int
	// Quantum is the time-slice (ns) before a runnable thread yields the
	// core to a waiter; 0 means 50µs.
	Quantum float64
	// Duration is the simulated run length in nanoseconds.
	Duration float64
	// Costs are the action costs; zero value selects DefaultCosts.
	Costs Costs
	// CostOf returns the per-tuple work units of a node; nil charges
	// zero work (forwarding only).
	CostOf func(n *graph.Node) int

	// Sharded replaces the single global free list with per-thread
	// shard LIFOs with work stealing — the policy model of the native
	// sharded free list (adaptive.go).
	Sharded bool
}

// Result summarizes a run.
type Result struct {
	// SinkTuples is the number of tuples delivered to sink nodes.
	SinkTuples uint64
	// Executed is tuples processed across all operators.
	Executed uint64
	// SimSeconds is the simulated duration.
	SimSeconds float64
	// SinkThroughput is SinkTuples/SimSeconds.
	SinkThroughput float64
	// CtxSwitches counts thread rotations onto cores.
	CtxSwitches uint64
	// Reschedules counts entries into the reSchedule self-help path.
	Reschedules uint64
	// FindFailures counts free-list walks that found nothing.
	FindFailures uint64
	// OrderViolations counts per-stream ordering violations observed at
	// the sinks (must be zero).
	OrderViolations uint64
	// PortStarved is the number of ports that never executed a tuple
	// despite receiving one.
	PortStarved int
}

// ----- simulated data structures -----

type simTuple struct {
	port int
	// src and seq identify the producing edge and position for ordering
	// checks.
	src int // producing node
	seq uint64
}

type simQueue struct {
	buf        []simTuple
	capacity   int
	prodLocked bool
	consLocked bool
}

func (q *simQueue) push(t simTuple) bool {
	if len(q.buf) >= q.capacity {
		return false
	}
	q.buf = append(q.buf, t)
	return true
}

func (q *simQueue) pop() (simTuple, bool) {
	if len(q.buf) == 0 {
		return simTuple{}, false
	}
	t := q.buf[0]
	q.buf = q.buf[1:]
	return t, true
}

// ----- engine -----

type event struct {
	at  float64
	seq uint64 // tie-break for determinism
	tid int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// frame is one entry of a thread's explicit control stack; the scheduler
// algorithms are recursive (execute → submit → push full → reSchedule →
// execute …), so the state machine carries the recursion explicitly.
type frame struct {
	kind frameKind
	// exec: the tuple being processed and the next output edge to emit.
	tuple   simTuple
	node    int
	outPort int
	outIdx  int
	// drain: the port being drained, tuples processed so far, and the
	// drain bound (-1: unbounded schedule()-style drain).
	port      int
	processed int
	limit     int
}

type frameKind int

const (
	fFindWork frameKind = iota
	fExec               // run node logic, then emit outputs
	fEmit               // emit tuple copies to successor ports
	fPush               // push one tuple into one port (may reSchedule)
	fDrain              // drain a consumer-locked port
)

type thread struct {
	id      int
	stack   []frame
	backoff float64
	// rng is a per-thread xorshift state for service-time jitter.
	rng uint64
	// walk state for findWorkNonBlocking
	first   int
	walking bool
	// core accounting
	sliceUsed float64
}

// Sim is one configured simulation.
type Sim struct {
	g   *graph.Graph
	cfg Config

	queues   []*simQueue
	freeList []int // FIFO of port IDs
	onList   []bool
	// Sharded free-list model (adaptive.go): per-scheduler-thread shard
	// LIFOs. Nil unless cfg.Sharded.
	shards [][]int

	threads []*thread
	// Elastic support (see elastic.go): suspension flags per scheduler
	// thread and whether each is parked awaiting resume.
	suspended []bool
	parked    []bool

	now    float64
	events eventHeap
	evSeq  uint64

	// source state: per source node, next seq and per-edge emit position
	srcSeq []uint64

	// ordering check: per (edge = src node, dest port) last seq seen
	lastSeq map[[2]int]uint64

	res            Result
	executedAtPort []uint64
	arrivedAtPort  []uint64
	seqs           [][]uint64 // per node, per out port: next seq
}

// New builds a simulation of g under cfg.
func New(g *graph.Graph, cfg Config) (*Sim, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("des: Cores must be positive")
	}
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("des: Threads must be positive")
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = sched.DefaultQueueCap
	}
	if cfg.ReschedLimit == 0 {
		cfg.ReschedLimit = cfg.QueueCap / 4
	}
	if cfg.ReschedLimit < 1 {
		cfg.ReschedLimit = 1
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 50e3
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1e9
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	s := &Sim{
		g:              g,
		cfg:            cfg,
		queues:         make([]*simQueue, len(g.Ports)),
		onList:         make([]bool, len(g.Ports)),
		lastSeq:        map[[2]int]uint64{},
		srcSeq:         make([]uint64, len(g.Nodes)),
		executedAtPort: make([]uint64, len(g.Ports)),
		arrivedAtPort:  make([]uint64, len(g.Ports)),
		seqs:           make([][]uint64, len(g.Nodes)),
	}
	for i := range s.queues {
		s.queues[i] = &simQueue{capacity: cfg.QueueCap}
		s.freeList = append(s.freeList, i)
		s.onList[i] = true
	}
	for _, n := range g.Nodes {
		s.seqs[n.ID] = make([]uint64, n.NumOut)
	}
	for i := 0; i < cfg.Threads; i++ {
		t := &thread{id: i, backoff: cfg.Costs.BackoffStartNs, rng: uint64(i)*2654435761 + 1}
		t.stack = []frame{{kind: fFindWork}}
		s.threads = append(s.threads, t)
	}
	// Source nodes get their own simulated threads appended after the
	// scheduler threads (the paper's "threads we cannot control").
	for range g.SourceNodes {
		t := &thread{id: len(s.threads), rng: uint64(len(s.threads))*2654435761 + 1}
		s.threads = append(s.threads, t)
	}
	if cfg.Sharded {
		s.shards = make([][]int, cfg.Threads)
	}
	return s, nil
}

func (s *Sim) isSourceThread(tid int) bool { return tid >= s.cfg.Threads }

// Run executes the simulation and returns the result summary.
func (s *Sim) Run() Result {
	// Start every thread at time 0; core assignment happens lazily.
	for tid := range s.threads {
		s.schedule(tid, 0)
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		if e.at > s.cfg.Duration {
			break
		}
		s.now = e.at
		s.step(e.tid)
	}
	s.res.SimSeconds = s.cfg.Duration / 1e9
	s.res.SinkThroughput = float64(s.res.SinkTuples) / s.res.SimSeconds
	for p := range s.queues {
		if s.arrivedAtPort[p] > 0 && s.executedAtPort[p] == 0 {
			s.res.PortStarved++
		}
	}
	return s.res
}

func (s *Sim) schedule(tid int, delay float64) {
	s.evSeq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.evSeq, tid: tid})
}

// jitter scales a duration by a deterministic ±15% service-time
// variation. Without it, identical action costs put queues into perfect
// lockstep: a drain never observes an empty queue, consumer locks are
// never released, and the simulation convoys in a way real machines
// (with cache misses, interrupts and frequency jitter) do not.
func (t *thread) jitter(d float64) float64 {
	// xorshift64
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return d * (0.85 + 0.30*float64(x%1024)/1024)
}

// charge returns the action duration, inserting context-switch and
// core-contention delays: only Cores threads make progress at once, so a
// thread whose slice expires while others wait is charged a rotation.
func (s *Sim) charge(t *thread, d float64) float64 {
	d = t.jitter(d)
	over := len(s.threads) - s.cfg.Cores
	if over <= 0 {
		return d
	}
	t.sliceUsed += d
	if t.sliceUsed >= s.cfg.Quantum {
		t.sliceUsed = 0
		s.res.CtxSwitches++
		// The thread waits while the other over threads use the core.
		wait := float64(over) / float64(s.cfg.Cores) * s.cfg.Quantum
		return d + s.cfg.Costs.CtxSwitchNs + wait
	}
	return d
}

// step advances thread tid by one action and schedules its next event.
func (s *Sim) step(tid int) {
	t := s.threads[tid]
	if s.isSourceThread(tid) {
		s.stepSource(tid, t)
		return
	}
	if len(t.stack) == 0 {
		t.stack = append(t.stack, frame{kind: fFindWork})
	}
	if t.stack[len(t.stack)-1].kind == fFindWork {
		s.stepFindWork(tid, t)
		return
	}
	s.stepFrame(tid, t)
}

// stepSource advances a source thread: generate the next tuple when
// idle, otherwise keep working the push/drain frames (source threads
// execute operators through reSchedule exactly like the real runtime's
// uncontrolled threads).
func (s *Sim) stepSource(tid int, t *thread) {
	src := s.g.SourceNodes[tid-s.cfg.Threads]
	c := s.cfg.Costs
	if len(t.stack) == 0 {
		if src.NumOut == 0 || len(src.Outs[0]) == 0 {
			return // nothing to generate into; thread retires
		}
		// Round-robin across the out port's subscribers, like the
		// Generator + splitter pair in the evaluation graphs.
		dests := src.Outs[0]
		n := s.srcSeq[src.ID]
		s.srcSeq[src.ID]++
		dest := dests[int(n)%len(dests)]
		t.stack = append(t.stack, frame{
			kind:  fPush,
			tuple: simTuple{port: dest, src: src.ID, seq: n / uint64(len(dests))},
		})
		s.schedule(tid, s.charge(t, c.SourceNs))
		return
	}
	s.stepFrame(tid, t)
}

// stepFindWork is the paper's Figure 5 free-list walk, one action at a
// time.
func (s *Sim) stepFindWork(tid int, t *thread) {
	if s.suspended != nil && tid < len(s.suspended) && s.suspended[tid] {
		// Park between drains, like a suspended native thread; resume
		// re-schedules the event.
		s.parked[tid] = true
		return
	}
	c := s.cfg.Costs
	dur := c.FreeListNs
	port, ok := s.popFree(t)
	if !ok {
		s.res.FindFailures++
		t.walking = false
		delay := t.backoff
		if t.backoff < c.BackoffMaxNs {
			t.backoff *= 10
		}
		t.sliceUsed = 0 // blocking releases the core
		s.schedule(tid, dur+delay)
		return
	}
	q := s.queues[port]
	dur += c.LockNs
	if !q.consLocked {
		q.consLocked = true
		if tu, popped := q.pop(); popped {
			dur += c.QueueOpNs
			t.backoff = c.BackoffStartNs
			t.walking = false
			// Execute this tuple, then drain the port.
			limit := -1 // the paper's drain-until-empty
			if s.cfg.DrainLimit > 0 {
				limit = s.cfg.DrainLimit
			}
			t.stack = append(t.stack,
				frame{kind: fDrain, port: port, limit: limit},
				frame{kind: fExec, tuple: tu, node: s.g.Ports[tu.port].Node.ID})
			s.schedule(tid, s.charge(t, dur))
			return
		}
		q.consLocked = false
	}
	s.pushFree(tid, port)
	if t.walking && port == t.first {
		t.walking = false
		s.res.FindFailures++
		delay := t.backoff
		if t.backoff < c.BackoffMaxNs {
			t.backoff *= 10
		}
		t.sliceUsed = 0
		s.schedule(tid, dur+delay)
		return
	}
	if !t.walking {
		t.walking = true
		t.first = port
	}
	s.schedule(tid, s.charge(t, dur))
}

// stepFrame advances the top non-FindWork frame: operator execution,
// output emission, pushes with reSchedule, and queue drains. Shared by
// scheduler and source threads.
func (s *Sim) stepFrame(tid int, t *thread) {
	f := &t.stack[len(t.stack)-1]
	c := s.cfg.Costs
	switch f.kind {
	case fExec:
		node := s.g.Nodes[f.node]
		work := 0.0
		if s.cfg.CostOf != nil {
			work = float64(s.cfg.CostOf(node)) * c.FlopNs
		}
		s.res.Executed++
		s.executedAtPort[f.tuple.port]++
		s.checkOrder(f.tuple)
		if node.NumOut == 0 {
			s.res.SinkTuples++
			t.stack = t.stack[:len(t.stack)-1]
			s.schedule(tid, s.charge(t, work))
			return
		}
		t.stack[len(t.stack)-1] = frame{kind: fEmit, node: f.node, tuple: f.tuple}
		s.schedule(tid, s.charge(t, work))

	case fEmit:
		node := s.g.Nodes[f.node]
		for f.outPort < node.NumOut && f.outIdx >= len(node.Outs[f.outPort]) {
			f.outPort++
			f.outIdx = 0
		}
		if f.outPort >= node.NumOut {
			t.stack = t.stack[:len(t.stack)-1]
			s.schedule(tid, 0)
			return
		}
		dest := node.Outs[f.outPort][f.outIdx]
		seq := s.seqs[f.node][f.outPort]
		if f.outIdx == len(node.Outs[f.outPort])-1 {
			s.seqs[f.node][f.outPort]++
		}
		f.outIdx++
		t.stack = append(t.stack, frame{kind: fPush, tuple: simTuple{port: dest, src: f.node, seq: seq}})
		s.schedule(tid, 0)

	case fPush:
		q := s.queues[f.tuple.port]
		dur := c.LockNs
		if !q.prodLocked {
			q.prodLocked = true
			ok := q.push(f.tuple)
			q.prodLocked = false
			dur += c.QueueOpNs
			if ok {
				s.arrivedAtPort[f.tuple.port]++
				t.stack = t.stack[:len(t.stack)-1]
				s.schedule(tid, s.charge(t, dur))
				return
			}
		}
		// Full (or producer contended): reSchedule — drain the blocking
		// port ourselves when its consumer lock is free (paper Fig. 6).
		s.res.Reschedules++
		if !q.consLocked {
			q.consLocked = true
			t.stack = append(t.stack, frame{kind: fDrain, port: f.tuple.port, limit: s.cfg.ReschedLimit})
		}
		s.schedule(tid, s.charge(t, dur))

	case fDrain:
		q := s.queues[f.port]
		if f.limit >= 0 && f.processed >= f.limit {
			q.consLocked = false
			t.stack = t.stack[:len(t.stack)-1]
			if s.cfg.DrainLimit > 0 && f.limit == s.cfg.DrainLimit {
				// A bounded schedule()-drain stopped early: the port
				// still has work, so return it to the list.
				s.pushFree(tid, f.port)
			}
			s.schedule(tid, s.charge(t, c.LockNs))
			return
		}
		tu, ok := q.pop()
		if !ok {
			q.consLocked = false
			t.stack = t.stack[:len(t.stack)-1]
			if f.limit < 0 {
				// schedule()-style drain finished: return the port to
				// the back of the free list.
				s.pushFree(tid, f.port)
			}
			s.schedule(tid, s.charge(t, c.LockNs+c.FreeListNs))
			return
		}
		f.processed++
		t.stack = append(t.stack, frame{kind: fExec, tuple: tu, node: s.g.Ports[tu.port].Node.ID})
		s.schedule(tid, s.charge(t, c.QueueOpNs))

	default:
		t.stack = t.stack[:len(t.stack)-1]
		s.schedule(tid, 0)
	}
}

// checkOrder verifies per-edge FIFO delivery.
func (s *Sim) checkOrder(tu simTuple) {
	key := [2]int{tu.src, tu.port}
	if last, ok := s.lastSeq[key]; ok && tu.seq <= last && tu.seq != 0 {
		s.res.OrderViolations++
	}
	s.lastSeq[key] = tu.seq
}

// popFree pops the next port hint for thread t: the sharded lookup
// when configured (adaptive.go), else the head of the global list.
func (s *Sim) popFree(t *thread) (int, bool) {
	if s.cfg.Sharded && t.id < s.cfg.Threads {
		return s.popFreeSharded(t)
	}
	if len(s.freeList) == 0 {
		return 0, false
	}
	p := s.freeList[0]
	s.freeList = s.freeList[1:]
	s.onList[p] = false
	return p, true
}

// pushFree releases port p from thread tid: onto the releaser's own
// shard for sharded scheduler threads, else the back of the global list
// (source threads always spill globally, like the native runtime's
// uncontrolled threads).
func (s *Sim) pushFree(tid, p int) {
	if s.onList[p] {
		return
	}
	s.onList[p] = true
	if s.cfg.Sharded && tid < s.cfg.Threads {
		s.shards[tid] = append(s.shards[tid], p)
		return
	}
	s.freeList = append(s.freeList, p)
}

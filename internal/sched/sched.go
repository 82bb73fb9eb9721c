// Package sched implements the paper's primary contribution: the
// scalable, mostly lock-free dynamic operator scheduler from IBM Streams
// 4.2 (§4.1).
//
// The design in one paragraph: every operator input port owns a bounded
// single-producer/single-consumer lock-free tuple queue, guarded by
// producer and consumer try-locks (lfq.Enforcer). A free structure
// holds the ports that may have work. Scheduler threads pop a port from
// it, try-lock its consumer side, pop one tuple, and — having paid the
// cost of touching shared data — drain the rest of the queue before
// returning the port. Threads that fail to push into a full downstream
// queue never block and never go back to the free structure: they
// alternate between retrying the push and draining a bounded amount of
// the blocking queue themselves (reSchedule). Every stop condition a
// thread polls is thread-local, so the hot loop touches no shared cache
// lines.
//
// The free structure goes beyond the paper: by default it is sharded —
// each scheduler thread owns a bounded lock-free LIFO of port hints
// (lfq.WSDeque) that it pushes and pops without a single CAS, stealing
// from other shards in randomized order when its own runs dry and
// spilling to a retained global list on overflow. The paper's original
// single global Vyukov MPMC list survives behind the GlobalFreeList
// flag; see DESIGN.md's "Sharded free list" section for the ownership
// and elastic-resize protocol.
package sched

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/exec"
	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/lfq"
	"streams/internal/metrics"
	"streams/internal/trace"
	"streams/internal/tuple"
)

// Config parametrizes a Scheduler. The zero value selects the defaults
// the product uses where the paper reports them; the paper's other
// settings are fixed (see reschedLimit, delayThreshold, chainDepth and
// the shard capacity in New). Outside tests, pe.New builds the Config
// from the resolved pe.Config, where a PE's callers set these fields.
type Config struct {
	// QueueCap is the per-input-port queue capacity; it must be a power
	// of two. Default DefaultQueueCap. A port's ring is allocated at its
	// first push, so a port that never queues costs no ring; a graph
	// whose memory is tight can still set a smaller capacity.
	QueueCap int
	// MaxThreads is the size of the scheduler thread table, the largest
	// thread level elasticity may reach. Default DefaultMaxThreads().
	MaxThreads int

	// Fault optionally installs a chaos injector at the scheduler's
	// seams (operator execution, queue pushes). Nil — the default —
	// keeps the seams at a nil-pointer check; see internal/fault.
	Fault *fault.Injector
	// QuarantineAfter is how many recovered panics an operator may
	// accumulate before the scheduler quarantines it: data tuples routed
	// to a quarantined operator are dead-lettered (counted, dropped)
	// instead of executed, while punctuation continues to propagate so
	// the graph still drains. Default 3.
	QuarantineAfter int
	// ShutdownTimeout bounds how long Shutdown waits for scheduler
	// threads to exit, and source frames to leave operator code, before
	// returning a diagnostic error naming the stuck ones (with a
	// goroutine dump). It must not be negative (pe.New rejects that).
	// Default DefaultShutdownTimeout.
	ShutdownTimeout time.Duration
	// WatchdogInterval enables the scheduler watchdog: every interval it
	// checks each running thread's and each source's heartbeat epoch and
	// reports those stuck inside operator code without progress for
	// longer than StallThreshold. Zero (the default) disables the
	// watchdog.
	WatchdogInterval time.Duration
	// StallThreshold is how long a thread may go without a heartbeat
	// before the watchdog reports it. Default 2×WatchdogInterval.
	StallThreshold time.Duration

	// Tracer, if set, records scheduler decisions (port acquires and
	// releases, steals, spills, parks, reschedules, quarantines) into
	// per-thread rings. Size it with TraceRings so every writer — each
	// scheduler thread slot, each source thread, and the elasticity
	// controller — owns a ring; New labels the rings to match. Nil (the
	// default) keeps every seam at a nil check.
	Tracer *trace.Tracer
	// Latency, if set, turns on end-to-end latency measurement: tuples
	// are stamped as source threads submit them and the elapsed time is
	// charged to this histogram as each stamped tuple drains at a sink
	// operator. Nil (the default) skips both seams.
	Latency *metrics.Histogram

	// GlobalFreeList routes every free-port handoff through the single
	// global FIFO list — the paper's original design — instead of the
	// sharded per-thread caches with work stealing. This is the
	// paper-faithful configuration for the Fig. 9–11 reproductions and
	// the free-list sharding benchmarks.
	GlobalFreeList bool
}

// Defaults of the zero Config fields that a PE needs under its other
// threading models too; pe.New resolves its Config with them.
//
// DefaultQueueCap is one full scatter of the widest slot table: a drain
// of one full queue gives each of maxSlots destinations a full batch, so
// a thread pays for an acquired port once per batch, not once per few
// tuples.
const (
	DefaultQueueCap        = maxSlots * graph.BatchSize
	DefaultShutdownTimeout = 60 * time.Second
)

// DefaultMaxThreads is MaxThreads' default: the logical CPU count, the
// paper's oversubscription guard (§4.2.3).
func DefaultMaxThreads() int { return runtime.NumCPU() }

// withDefaults resolves the zero fields. A bad QueueCap panics: pe.New
// rejects it with an error first.
func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.QueueCap < 1 || c.QueueCap&(c.QueueCap-1) != 0 {
		panic(fmt.Sprintf("sched: QueueCap %d is not a positive power of two", c.QueueCap))
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = DefaultMaxThreads()
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = DefaultShutdownTimeout
	}
	if c.StallThreshold == 0 {
		c.StallThreshold = 2 * c.WatchdogInterval
	}
	return c
}

// delayThreshold caps the exponential back-off when no work is found:
// the product's 10ms (§4.1.3).
const delayThreshold = 10 * time.Millisecond

// chainDepth bounds how many consecutive downstream operators one
// thread may execute inline through the chain path before falling back
// to the queue: when a coalesced batch flushes to a chainable port
// (graph.InPort.Chainable) whose consumer try-lock this thread wins and
// whose queue is empty, the thread runs the downstream operator
// directly — no push, no free-list hint cycle, no cross-thread wake.
// It also caps the length of a fused run.
const chainDepth = 8

// maxShardHints caps each thread's local free-port cache under the
// sharded free list. New sizes the shards to the global list's capacity
// up to this cap: large enough that typical graphs never spill, small
// enough that a thread cannot pin memory proportional to a huge port
// set.
const maxShardHints = 256

// Scheduler executes a stream graph with a dynamically sized pool of
// threads, any of which can execute any operator input port.
type Scheduler struct {
	// Core executes the operators and keeps the execution meters, the
	// containment state and the final-punctuation accounting; its
	// accessors (Executed, Faults, Done, ...) are the scheduler's.
	*exec.Core

	g   *graph.Graph
	cfg Config
	// reschedLimit bounds how many tuples a pushing thread drains from a
	// full queue before retrying its push: QueueCap/4 (at least 1), the
	// product's setting (§4.1.4).
	reschedLimit int

	// queues is the paper's queuesTable: written once at initialization,
	// read-only afterwards, indexed by global input-port ID.
	queues []*lfq.Enforcer[tuple.Tuple]
	// freePorts is the global FIFO free list of input-port IDs
	// (approximately LRU scheduling, §4.1.5). Under the sharded design
	// it holds the initial port population, shard spills, and the hints
	// flushed by suspending or exiting threads.
	freePorts *lfq.MPMC[int32]
	// shards are the per-thread free-port caches (nil entries never
	// exist; one deque per thread-table slot). Only the owning thread
	// pushes to or pops the bottom of its shard; any thread may steal.
	// Unused when useShards is false.
	shards []*lfq.WSDeque
	// useShards selects the sharded free list: the default, reversed by
	// GlobalFreeList.
	useShards bool

	// seqs[node][outPort] stamps stream sequence numbers for the
	// ordering tests. When several threads execute one multi-input-port
	// operator concurrently the stamp order is advisory; for single-
	// input-port operators it is exact.
	seqs [][]atomic.Uint64

	// Global fall-back stop flags for threads the scheduler does not
	// control (operator/source threads executing reSchedule).
	shutdownGlobal    atomic.Bool
	portsClosedGlobal atomic.Bool

	threads []*Thread
	// sources holds one owner per source thread, indexed like
	// g.SourceNodes: what its frames charge while they run operator code
	// through a push-time commit or reSchedule self-help.
	sources []sourceOwner
	started []bool // whether threads[i]'s goroutine exists
	level   int    // current number of unsuspended threads
	levelMu sync.Mutex
	wg      sync.WaitGroup

	// batchCap is the size of every tuple batch buffer:
	// min(QueueCap, graph.BatchSize). Batches amortize the queue-index
	// and metric synchronization over many tuples; graph.BatchSize
	// bounds both the extra work a thread commits to before noticing
	// suspension and the submit-side latency a coalesced tuple can
	// accrue.
	batchCap int
	// bufPool recycles drain and coalescing buffers beyond the
	// per-thread spares, and for source threads (which have no Thread).
	bufPool sync.Pool
	// slotBase[node][outPort] is the ordinal of that output port's first
	// subscriber among all of the node's (outPort, subscriber) pairs, and
	// numSlots[node] the size of the node's coalescing slot table: the
	// pair count rounded up to a power of two, capped at maxSlots. Both
	// are written once at New (see ctx.slots).
	slotBase [][]int32
	numSlots []int
	// ctxPool recycles execution contexts for thread-less producers
	// (source threads draining through reSchedule); scheduler threads use
	// their own free list instead (Thread.ctxCache).
	ctxPool sync.Pool

	// Scheduling meters (the execution meters live in Core).
	reschedules *metrics.Counter
	findFails   *metrics.Counter
	contention  *metrics.Contention // free-list push/pop failures, steals, spills

	// Per-port flow meters for the observability layer (internal/obs):
	// how often a push to this port's queue fell into reSchedule and how
	// long producers spent inside it. Charged only on the congestion
	// path — the fast push pays nothing — and read by SampleFlow.
	portResched   []atomic.Uint64
	portBlockedNs []atomic.Uint64

	// Inline chain execution (DESIGN.md "Inline chain execution").
	// chainable caches graph.InPort.Chainable per port ID so the flush
	// hot path pays one slice load for the static half of the chain
	// test; chainBudget0 is the tuple allowance of one top-level batch —
	// chainDepth × batchCap, exactly enough for a full batch to chain to
	// full depth, so operators that amplify their input cannot extend a
	// drain unboundedly and elastic suspension stays prompt; chains holds
	// the sharded meters.
	chainable    []bool
	chainBudget0 int
	chains       *metrics.Chain

	// Fused superinstruction dispatch (fused.go). fusedRuns holds the
	// precomputed run per entry port (nil = none); vms holds the sharded
	// meters.
	fusedRuns []*fusedRun
	vms       *metrics.VM

	// inj is the chaos injector (nil when disabled — the queue seams
	// then cost a nil check).
	inj *fault.Injector
	tr  *trace.Tracer // nil when tracing is off

	// Watchdog bookkeeping: the goroutine is started with the first
	// scheduler thread (when WatchdogInterval > 0) and stopped by
	// Shutdown or the PE draining.
	watchdogOnce sync.Once
	watchdogStop chan struct{}
	watchdogWG   sync.WaitGroup
}

// New builds a scheduler for the graph. Call Start (or SetLevel) to
// launch threads, and use SourceSubmitter/SourceDone to connect source
// operator threads.
func New(g *graph.Graph, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	nPorts := len(g.Ports)
	listCap := 1
	for listCap < nPorts+1 {
		listCap *= 2
	}
	shardCap := min(listCap, maxShardHints)
	batchCap := min(cfg.QueueCap, graph.BatchSize)
	// writers sizes the metric shards: one per scheduler thread slot
	// plus one per source operator thread.
	writers := cfg.MaxThreads + len(g.SourceNodes)
	s := &Scheduler{
		g:             g,
		cfg:           cfg,
		reschedLimit:  max(cfg.QueueCap/4, 1),
		useShards:     !cfg.GlobalFreeList,
		batchCap:      batchCap,
		queues:        make([]*lfq.Enforcer[tuple.Tuple], nPorts),
		freePorts:     lfq.NewMPMC[int32](listCap),
		seqs:          make([][]atomic.Uint64, len(g.Nodes)),
		slotBase:      make([][]int32, len(g.Nodes)),
		numSlots:      make([]int, len(g.Nodes)),
		threads:       make([]*Thread, cfg.MaxThreads),
		sources:       make([]sourceOwner, len(g.SourceNodes)),
		started:       make([]bool, cfg.MaxThreads),
		reschedules:   metrics.NewCounter(writers),
		findFails:     metrics.NewCounter(writers),
		contention:    metrics.New[metrics.Contention](writers),
		portResched:   make([]atomic.Uint64, nPorts),
		portBlockedNs: make([]atomic.Uint64, nPorts),
		chainable:     make([]bool, nPorts),
		chainBudget0:  chainDepth * batchCap,
		chains:        metrics.New[metrics.Chain](writers),
		vms:           metrics.New[metrics.VM](writers),
		inj:           cfg.Fault,
		tr:            cfg.Tracer,
		watchdogStop:  make(chan struct{}),
	}
	s.bufPool.New = func() any {
		b := make([]tuple.Tuple, batchCap)
		return &b
	}
	if s.useShards {
		s.shards = make([]*lfq.WSDeque, cfg.MaxThreads)
	}
	for i := range s.threads {
		s.threads[i] = newThread(i, batchCap)
		if s.useShards {
			s.shards[i] = lfq.NewWSDeque(shardCap)
			s.threads[i].shard = s.shards[i]
		}
	}
	for _, p := range g.Ports {
		s.queues[p.ID] = lfq.NewEnforcer[tuple.Tuple](cfg.QueueCap)
		s.chainable[p.ID] = p.Chainable
		if !s.freePorts.Push(int32(p.ID)) {
			panic("sched: free list sized too small") // unreachable: listCap > nPorts
		}
	}
	for _, n := range g.Nodes {
		s.seqs[n.ID] = make([]atomic.Uint64, n.NumOut)
		s.slotBase[n.ID] = make([]int32, n.NumOut)
		dests := 0
		for out, subs := range n.Outs {
			s.slotBase[n.ID][out] = int32(dests)
			dests += len(subs)
		}
		slots := 1
		for slots < dests && slots < maxSlots {
			slots *= 2
		}
		s.numSlots[n.ID] = slots
	}
	// Built once the thread table is: a graph without ports is drained
	// at once, and Drained walks the table.
	s.Core = exec.New(g, exec.Options{
		Shards:          writers,
		QuarantineAfter: cfg.QuarantineAfter,
		Fault:           cfg.Fault,
		Tracer:          cfg.Tracer,
		Latency:         cfg.Latency,
		Drained:         s.beginPortsClosed,
	})
	s.buildFusedRuns()
	s.labelTraceRings()
	return s
}

// TraceRings returns how many tracer rings a scheduler built from cfg
// needs under the single-writer convention: one per scheduler thread
// slot (rings 0..MaxThreads-1), one per source thread
// (MaxThreads..MaxThreads+len(g.SourceNodes)-1), and one final ring for
// the elasticity controller.
func TraceRings(cfg Config, g *graph.Graph) int {
	cfg = cfg.withDefaults()
	return cfg.MaxThreads + len(g.SourceNodes) + 1
}

// labelTraceRings names the tracer's rings after the writer convention
// so the trace_event export shows meaningful thread names. A tracer
// with fewer rings than writers just loses the overflow events.
func (s *Scheduler) labelTraceRings() {
	if s.tr == nil {
		return
	}
	for i := 0; i < s.cfg.MaxThreads; i++ {
		s.tr.SetLabel(i, fmt.Sprintf("sched-%d", i))
	}
	sources := len(s.g.SourceNodes)
	for i := 0; i < sources; i++ {
		s.tr.SetLabel(s.cfg.MaxThreads+i, fmt.Sprintf("source-%d", i))
	}
	if s.tr.Rings() == s.cfg.MaxThreads+sources+1 {
		s.tr.SetLabel(s.tr.Rings()-1, "elastic")
	}
}

// MinLevel returns the smallest safe thread level for the graph: one
// more than the maximum number of input ports on any operator, the
// paper's deadlock-avoidance rule (§4.2.3).
func (s *Scheduler) MinLevel() int { return s.g.MaxInPorts() + 1 }

// MaxLevel returns the configured thread-table size.
func (s *Scheduler) MaxLevel() int { return s.cfg.MaxThreads }

// Reschedules returns how many times a full-queue push fell into the
// reSchedule self-help path.
func (s *Scheduler) Reschedules() uint64 { return s.reschedules.Total() }

// FindFailures returns how many findWorkNonBlocking calls found nothing.
func (s *Scheduler) FindFailures() uint64 { return s.findFails.Total() }

// Stats is a single-pass snapshot of the scheduler's slow-path meters:
// how often threads fell into self-help (reschedules), came up empty
// from a work search (find failures), and the contention, fault, chain
// and VM bundles. Panels and endpoints that present more than one of
// these values together must read them through Stats rather than
// through the individual accessors in sequence: the counters advance
// between separate calls, so derived ratios (dead-letters versus
// delivered, steals per find) would come out torn. The JSON tags are
// the /debugz/stats wire shape.
type Stats struct {
	// Reschedules counts full-queue pushes that fell into self-help.
	Reschedules uint64 `json:"reschedules"`
	// FindFailures counts work searches that came up empty.
	FindFailures uint64 `json:"find_failures"`
	// Contention snapshots the free-structure meters.
	Contention metrics.ContentionSnapshot `json:"contention"`
	// Faults snapshots the fault-containment meters.
	Faults metrics.FaultsSnapshot `json:"faults"`
	// Chain snapshots the inline chain-execution meters.
	Chain metrics.ChainSnapshot `json:"chain"`
	// VM snapshots the fused bytecode-dispatch meters.
	VM metrics.VMSnapshot `json:"vm"`
}

// Stats reads every meter in one pass (see the Stats type's contract).
func (s *Scheduler) Stats() Stats {
	return Stats{
		Reschedules:  s.reschedules.Total(),
		FindFailures: s.findFails.Total(),
		Contention:   s.contention.Snapshot(),
		Faults:       s.Faults(),
		Chain:        s.chains.Snapshot(),
		VM:           s.vms.Snapshot(),
	}
}

// Backlog returns the total tuple occupancy across every input-port
// queue — a racy but order-of-magnitude-faithful overload signal. The
// ingest front end polls it as its global admission gate: a backlog
// near the aggregate queue capacity means the runtime is saturated and
// best-effort traffic should be shed at the door instead of queued.
// O(ports); each Len is two atomic loads.
func (s *Scheduler) Backlog() int {
	total := 0
	for _, q := range s.queues {
		total += q.Queue().Len()
	}
	return total
}

// Edge describes one input-port queue as a flow edge for the
// observability layer: which operator(s) feed the port, which operator
// consumes it, and the queue capacity the occupancy samples are
// measured against. Static for the life of the scheduler.
type Edge struct {
	// Port is the global input-port ID (the queue index).
	Port int `json:"port"`
	// From names the producer operator(s), "+"-joined under fan-in;
	// FromNodes lists their node IDs (attribution walks the topology
	// downstream through these).
	From      string `json:"from"`
	FromNodes []int  `json:"from_nodes"`
	// To names the consumer operator; ToNode is its node ID.
	To     string `json:"to"`
	ToNode int    `json:"to_node"`
	// Cap is the queue capacity.
	Cap int `json:"cap"`
}

// Edges returns one Edge per input port, in port-ID order.
func (s *Scheduler) Edges() []Edge {
	producers := make([][]string, len(s.g.Ports))
	producerIDs := make([][]int, len(s.g.Ports))
	for _, n := range s.g.Nodes {
		for _, dests := range n.Outs {
			for _, pid := range dests {
				name := n.Op.Name()
				seen := false
				for _, have := range producers[pid] {
					if have == name {
						seen = true
						break
					}
				}
				if !seen {
					producers[pid] = append(producers[pid], name)
					producerIDs[pid] = append(producerIDs[pid], n.ID)
				}
			}
		}
	}
	edges := make([]Edge, len(s.g.Ports))
	for _, p := range s.g.Ports {
		edges[p.ID] = Edge{
			Port:      p.ID,
			From:      strings.Join(producers[p.ID], "+"),
			FromNodes: producerIDs[p.ID],
			To:        p.Node.Op.Name(),
			ToNode:    p.Node.ID,
			Cap:       s.cfg.QueueCap,
		}
	}
	return edges
}

// SampleFlow fills the per-port flow meters in one pass: current queue
// occupancy, cumulative reSchedule entries, and cumulative nanoseconds
// producers spent blocked inside reSchedule. Each slice must hold one
// entry per input port, indexed like Edges; a nil slice skips that
// meter. Racy by design, like Backlog: the values are an attribution
// signal, not an accounting truth. O(ports), allocation-free.
func (s *Scheduler) SampleFlow(depth []int, resched, blockedNs []uint64) {
	for i := range s.queues {
		if depth != nil {
			depth[i] = s.queues[i].Queue().Len()
		}
		if resched != nil {
			resched[i] = s.portResched[i].Load()
		}
		if blockedNs != nil {
			blockedNs[i] = s.portBlockedNs[i].Load()
		}
	}
}

// ctx carries the execution context of one thread while it runs operator
// code: which node is executing (for routing), which metric shard to
// charge, and which thread-local stop flags to consult. Non-scheduler
// threads (source operator threads) have thr == nil and fall back to the
// global flags, the paper's isFinished()/isSuspended() indirection
// (§4.1.4).
type ctx struct {
	s    *Scheduler
	node *graph.Node
	tid  int
	thr  *Thread
	// own is the executor the frame charges: &thr.owner on a scheduler
	// thread, the source's entry in Scheduler.sources on a source frame
	// (thr nil). Never nil.
	own *owner

	// stamp marks source-thread contexts when latency measurement is on:
	// each submitted data tuple is stamped with the wall-clock time so
	// the sink-drain seam can charge the end-to-end latency histogram.
	stamp bool

	// Submit-side scatter coalescing. Every context that drains a port
	// (schedule, tryChain, tryFused, reSchedule) has a slot table: its
	// submissions accumulate per destination in slots and each slot
	// moves with one chain link or one Enforcer.PushN. The table is a
	// direct-mapped cache of at most maxSlots entries indexed by the
	// node's (outPort, subscriber) ordinal (slotBase[outPort]+subscriber,
	// precomputed at New): a node with one destination has exactly one
	// slot, a w<=maxSlots splitter one per worker, and a wider fan-out
	// wraps, so colliding destinations evict each other and degrade to a
	// push per tuple. That caps what one context can hold at
	// maxSlots*batchCap tuples whatever the fan-out. Source contexts have
	// no table (slots nil) and push at once: a source ctx lives for the
	// whole Run, so a held tuple would have no flush point; sources
	// batch explicitly through SubmitBatch instead.
	slotBase []int32
	slots    []slot

	// chainLeft is how many more inline chain links this frame's
	// flushes may open: chainDepth on a top-level drain frame and on a
	// source's submit frame, parent-1 on chained frames (0 = depth
	// exhausted, metered), -1 on reSchedule frames, which never chain.
	// Checked by deliver before any dynamic chain test, so a frame that
	// may not chain pays one integer compare per flush.
	chainLeft int

	// nextFree chains recycled contexts on their thread's free list
	// (Thread.ctxCache); meaningful only between releaseCtx and the next
	// acquireCtx.
	nextFree *ctx
}

// maxSlots bounds a context's slot table, and with it the tuples one
// context can hold back (maxSlots*batchCap) and the buffers it can
// borrow, independent of the executing node's fan-out.
const maxSlots = 16

// slot holds the tuples one context has coalesced for one destination
// port. It fills lazily, so single-submission operator invocations (the
// overwhelmingly common case on a pipeline) pay one tuple copy and no
// buffer traffic: the first tuple is held inline in first, and only a
// second tuple for the same destination borrows a batch buffer, which
// the slot then keeps until endCoalesce.
type slot struct {
	n     int   // tuples held; in *buf when buf != nil, else in first
	port  int32 // their destination
	buf   *[]tuple.Tuple
	first [1]tuple.Tuple
}

// Submit implements graph.Submitter.
func (c *ctx) Submit(t tuple.Tuple, outPort int) {
	node := c.node
	if outPort < 0 || outPort >= node.NumOut {
		panic(fmt.Sprintf("sched: operator %s submitted to nonexistent output port %d", node.Op.Name(), outPort))
	}
	t.Seq = c.s.seqs[node.ID][outPort].Add(1) - 1
	if c.stamp && t.Kind == tuple.Data {
		t.Stamp = time.Now().UnixNano()
	}
	for j, pid := range node.Outs[outPort] {
		t.Port = int32(pid)
		if c.slots != nil {
			c.buffer(int(c.slotBase[outPort])+j, &t)
		} else {
			c.s.push(t, c)
		}
	}
}

// SubmitBatch implements graph.BatchSubmitter: ts goes to every
// subscriber of outPort with one sequence-counter add and one clock read
// for the whole batch. Port, Seq and Stamp of the caller's tuples are
// overwritten. A source context hands each subscriber the batch through
// deliver (one PushN, remainder in order through push/reSchedule); a
// drain context buffers it like so many Submit calls.
func (c *ctx) SubmitBatch(ts []tuple.Tuple, outPort int) {
	node := c.node
	if outPort < 0 || outPort >= node.NumOut {
		panic(fmt.Sprintf("sched: operator %s submitted to nonexistent output port %d", node.Op.Name(), outPort))
	}
	if len(ts) == 0 {
		return
	}
	seq := c.s.seqs[node.ID][outPort].Add(uint64(len(ts))) - uint64(len(ts))
	var now int64
	if c.stamp {
		now = time.Now().UnixNano()
	}
	for i := range ts {
		ts[i].Seq = seq + uint64(i)
		if now != 0 && ts[i].Kind == tuple.Data {
			ts[i].Stamp = now
		}
	}
	for j, pid := range node.Outs[outPort] {
		for i := range ts {
			ts[i].Port = int32(pid)
		}
		if c.slots == nil {
			// Each delivery is a root batch of the source's, with a
			// fresh allowance, like each batch of a scheduler drain.
			c.own.chainBudget = c.s.chainBudget0
			c.deliver(int32(pid), ts)
			continue
		}
		for i := range ts {
			c.buffer(int(c.slotBase[outPort])+j, &ts[i])
		}
	}
}

// buffer records *t, already routed and stamped, in the slot of its
// destination ordinal. Tuples for one destination are buffered and
// flushed in submission order, so the per-stream FIFO guarantee is
// untouched; only the interleaving across different destination ports
// can differ from unbuffered submission, which no ordering requirement
// covers.
func (c *ctx) buffer(ord int, t *tuple.Tuple) {
	sl := &c.slots[ord&(len(c.slots)-1)]
	if sl.n > 0 && (sl.port != t.Port || sl.n == c.s.batchCap) {
		c.flushSlot(sl) // evicted by a colliding destination, or full
	}
	sl.port = t.Port
	if sl.buf == nil {
		if sl.n == 0 {
			sl.first[0] = *t
			sl.n = 1
			return
		}
		// Second tuple for one destination: this drain is actually
		// batching, so now pay for a buffer.
		sl.buf = c.s.acquireBatch(c.thr)
		(*sl.buf)[0] = sl.first[0]
	}
	(*sl.buf)[sl.n] = *t
	sl.n++
}

// flushSlot delivers what a slot holds and leaves it empty (keeping its
// buffer).
func (c *ctx) flushSlot(sl *slot) {
	n := sl.n
	if n == 0 {
		return
	}
	if inj := c.s.inj; inj != nil {
		inj.StallFault() // chaos seam: let the destination queue run full
	}
	sl.n = 0
	if sl.buf != nil {
		c.deliver(sl.port, (*sl.buf)[:n])
	} else {
		c.deliver(sl.port, sl.first[:])
	}
}

// deliver moves a batch (every tuple destined for port) to its
// destination: the inline chain path when this frame may still chain
// and the port qualifies, the queue otherwise. When the queue is full
// or its producer lock contended, the next tuple goes through
// push/reSchedule — exactly the back-pressure path unbuffered submission
// takes, so blocking semantics are unchanged — and the rest follows as a
// batch again, in order, into the space that made.
func (c *ctx) deliver(port int32, batch []tuple.Tuple) {
	s := c.s
	if c.chainLeft > 0 {
		if s.tryChain(c, port, batch) {
			return
		}
	} else if c.chainLeft == 0 && s.chainable[port] {
		// A chainable destination reached with the link budget spent:
		// meter the depth stop so chain-length tuning has data. Only a
		// depth-exhausted chained frame can get here — reSchedule frames
		// (chainLeft -1) are excluded.
		s.chains.DepthStops.Add(c.tid, 1)
		s.emitChainStop(c.tid, trace.ChainStopDepth, port)
	}
	q := s.queues[port]
	for len(batch) > 0 {
		n := q.PushN(batch)
		if n == 0 {
			s.push(batch[0], c)
			n = 1
		}
		batch = batch[n:]
	}
}

// endCoalesce flushes every slot and returns the borrowed buffers. Every
// drain calls it before releasing its port's consumer lock, so no tuple
// outlives the drain that submitted it.
func (c *ctx) endCoalesce() {
	for i := range c.slots {
		sl := &c.slots[i]
		c.flushSlot(sl)
		if sl.buf != nil {
			c.s.releaseBatch(c.thr, sl.buf)
			sl.buf = nil
		}
	}
}

// tryChain attempts to deliver batch (every tuple destined for port) by
// executing the port's operator inline on the calling thread — the
// run-to-completion chain path that bypasses the queue push, the
// free-list hint cycle, and the cross-thread drain hand-off. It may
// only run from a frame with chain budget left (deliver checks
// chainLeft): a coalescing drain frame, or a source's submit frame.
//
// A source frame (thr nil) commits only a partial batch, one shorter
// than batchCap. A source that could not fill a batch is input-bound —
// it is waiting for its input, not for the runtime — so running the
// batch to completion on its thread gives up no pipelining and saves
// the hand-off to a scheduler thread, which at light load is most of a
// tuple's latency (the paper's manual model, taken only when it costs
// nothing). A full batch goes to the queue, where scheduler threads
// overlap its execution with the source producing the next one.
//
// Every commit preserves every scheduler invariant the queue path
// provides:
//
//   - Per-stream FIFO: the chain commits only while holding the port's
//     consumer lock with the queue observed empty. Execution of a
//     chainable port only ever happens under that lock, so every
//     earlier tuple of every stream into the port has already been
//     processed; and any tuple another producer pushes while the chain
//     holds the lock belongs to a different stream (this frame's node
//     produced the chained batch, and its stream feeds only this port),
//     so ordering behind the chained batch violates nothing. A source
//     frame that finds the queue occupied first runs what is queued
//     (drainAhead), which holds every earlier tuple of its stream.
//   - Punctuation: the batch executes through the same executeSpan as a
//     queue drain, so window and final marks forward in position; an
//     unchained punctuation already in the queue blocks chaining via
//     the empty-queue test (or, on a source frame, runs first), so
//     nothing overtakes it.
//   - Deadlock freedom: the graph is a DAG and a chain only acquires
//     consumer locks strictly downstream of the locks it holds, with
//     try-locks and a queue fallback on every failure — no wait cycle
//     can form.
//   - Containment: executeSpan's span recovery runs per chained frame,
//     so a panic in a chained operator dead-letters its tuple and
//     strikes that operator without unwinding the upstream frame.
//   - Elasticity: a suspension or stop request observed at a link
//     boundary declines the link, so parking latency is bounded by the
//     links already committed (each at most one batch), and the tuple
//     budget bounds the total work one root drain can commit to.
//
// The port hint is untouched throughout: it keeps circulating in the
// free structure, so tuples other producers push while the chain holds
// the consumer lock are found by the normal find path afterwards.
func (s *Scheduler) tryChain(c *ctx, port int32, batch []tuple.Tuple) bool {
	if !s.chainable[port] {
		return false
	}
	thr := c.thr
	if thr == nil && len(batch) >= s.batchCap {
		return false
	}
	tid := c.tid
	own := c.own
	if len(batch) > own.chainBudget {
		s.chains.BudgetStops.Add(tid, 1)
		s.emitChainStop(tid, trace.ChainStopBudget, port)
		return false
	}
	if c.finished() || c.suspendedNow() {
		s.emitChainStop(tid, trace.ChainStopHalt, port)
		return false
	}
	q := s.queues[port]
	if !q.ConsTryLock() {
		s.chains.LockMisses.Add(tid, 1)
		s.emitChainStop(tid, trace.ChainStopLock, port)
		return false
	}
	if q.Queue().Len() != 0 && (thr != nil || !s.drainAhead(c, port)) {
		q.ConsUnlock()
		s.chains.Occupied.Add(tid, 1)
		s.emitChainStop(tid, trace.ChainStopOccupied, port)
		return false
	}
	// Committed: the lock is held, the queue is empty, the budgets
	// allow it. When a fused run is rooted here, try to execute the
	// whole run as one program first; a decline falls through to the
	// per-operator link below with the lock still held.
	if thr == nil && c.chainLeft == chainDepth {
		s.chains.SourceCommits.Add(tid, 1)
	}
	if fr := s.fusedRuns[port]; fr != nil {
		if s.tryFused(c, fr, port, batch, false) {
			q.ConsUnlock()
			return true
		}
	}
	// Execute the batch as if it had been drained here.
	own.chainBudget -= len(batch)
	depth := chainDepth - c.chainLeft + 1
	if depth == 1 {
		s.chains.Starts.Add(tid, 1)
	}
	s.chains.Links.Add(tid, 1)
	s.chains.Tuples.Add(tid, uint64(len(batch)))
	if s.tr.On() {
		s.tr.Emit(tid, trace.KindChain, trace.PackPair(int32(depth), uint32(port)))
	}
	p := s.g.Ports[port]
	ec := s.acquireCtx(p, tid, thr)
	ec.chainLeft = c.chainLeft - 1
	s.executeBatch(ec, p, batch)
	own.heartbeat.Add(1)
	// Flush the chained frame's own submissions before releasing the
	// consumer lock — the same discipline as schedule()'s drain, and
	// where the next link of the chain opens.
	ec.endCoalesce()
	q.ConsUnlock()
	s.releaseCtx(ec)
	return true
}

// drainAhead runs, on a source frame holding port's consumer lock, the
// tuples queued at port when it is called, and reports whether it ran
// them all; the frame's partial batch may then commit behind them. The
// frame is its stream's only producer and it is here, so every earlier
// tuple of that stream is among them: per-stream FIFO holds without the
// empty queue the commit otherwise requires (tuples other producers push
// meanwhile belong to other streams).
//
// An input-bound source meets an occupied queue when one of its earlier
// batches was queued — it was full, or its commit lost the lock — while
// the scheduler threads, idle at such a load, sit in their timed
// back-off: without the drain every later batch would queue behind it
// until a back-off timer fired. It is reSchedule's self-help, taken at
// an occupied queue rather than a full one and bounded by the queue's
// capacity rather than reschedLimit; the drained batches execute as a
// link of the source frame.
func (s *Scheduler) drainAhead(c *ctx, port int32) bool {
	// The queue bounds the drain, not the allowance: what the drained
	// batches spend is given back, so the batch behind them commits
	// with the allowance tryChain checked.
	budget := c.own.chainBudget
	bufp := s.acquireBatch(nil)
	ec := s.acquireCtx(s.g.Ports[port], c.tid, nil)
	ec.chainLeft = c.chainLeft - 1
	ahead := s.queues[port].Queue().Len()
	ran := s.drainQueued(c, ec, port, *bufp, ahead)
	ec.endCoalesce()
	s.releaseCtx(ec)
	s.releaseBatch(nil, bufp)
	c.own.chainBudget = budget
	return ran == ahead
}

// drainQueued runs up to limit tuples queued at port, whose consumer
// lock the caller holds, on the drain context ec: popped in batches
// through buf, each batch through the port's fused run when it commits
// and executeBatch otherwise, locks, indices and counters charged per
// batch. It stops early when c's executor is asked to stop, and returns
// how many tuples it ran. A suspension request does not stop it: the
// caller holds a consumer lock, and a thread that holds one drains until
// it releases it (DESIGN.md "Elastic resizing").
func (s *Scheduler) drainQueued(c, ec *ctx, port int32, buf []tuple.Tuple, limit int) int {
	q := s.queues[port]
	p := s.g.Ports[port]
	fr := s.fusedRuns[port]
	drained := 0
	for drained < limit && !c.finished() {
		n := q.Queue().PopN(buf[:min(limit-drained, len(buf))])
		if n == 0 {
			break
		}
		if fr == nil || !s.tryFused(ec, fr, port, buf[:n], true) {
			s.executeBatch(ec, p, buf[:n])
		}
		// A long self-help drain is progress, not a stall.
		c.own.heartbeat.Add(1)
		drained += n
	}
	return drained
}

// emitChainStop records a declined chain attempt in the trace (the
// sharded stop meters are charged by the callers).
func (s *Scheduler) emitChainStop(tid int, reason int32, port int32) {
	if s.tr.On() {
		s.tr.Emit(tid, trace.KindChainStop, trace.PackPair(reason, uint32(port)))
	}
}

// acquireBatch returns a batchCap-sized tuple buffer: one of the
// thread's spares when it has any, the shared pool otherwise (cold
// threads and source threads, which have no Thread). The spares are
// touched only by the owning goroutine, so they need no synchronization.
// Buffers travel as *[]tuple.Tuple so the release re-pools the same
// pointer instead of boxing a fresh slice header.
func (s *Scheduler) acquireBatch(thr *Thread) *[]tuple.Tuple {
	if thr != nil && len(thr.spares) > 0 {
		b := thr.spares[len(thr.spares)-1]
		thr.spares = thr.spares[:len(thr.spares)-1]
		return b
	}
	return s.bufPool.Get().(*[]tuple.Tuple)
}

// releaseBatch returns a buffer obtained from acquireBatch. Contents are
// not cleared: buffers recycle quickly on the hot path and pooled buffers
// are dropped by the garbage collector when idle, so stale Ref pointers
// are only transiently retained.
func (s *Scheduler) releaseBatch(thr *Thread, b *[]tuple.Tuple) {
	if thr != nil && len(thr.spares) < cap(thr.spares) {
		thr.spares = append(thr.spares, b)
		return
	}
	s.bufPool.Put(b)
}

func (c *ctx) finished() bool {
	if c.thr != nil {
		return c.thr.stopRequested()
	}
	return c.s.shutdownGlobal.Load() || c.s.portsClosedGlobal.Load()
}

func (c *ctx) suspendedNow() bool {
	if c.thr != nil {
		return c.thr.suspended.Load()
	}
	return false
}

// backoff is the paper's spin-then-sleep wait policy, shared by every
// seam that must wait out brief contention: the first spinBudget waits
// yield the processor (the common case — a lock holder or an MPMC slot
// in transit resolves within a scheduling quantum), after which each
// wait sleeps with the §4.1.3 exponential back-off, 1µs growing ×10 up
// to delayThreshold.
type backoff struct {
	spins int
	delay time.Duration
}

// backoffSpinBudget is how many waits yield before the sleeps start —
// the same budget the global free-list push has always used.
const backoffSpinBudget = 8

func newBackoff() backoff {
	return backoff{delay: time.Microsecond}
}

// wait performs one wait step and returns.
func (b *backoff) wait() {
	if b.spins < backoffSpinBudget {
		b.spins++
		runtime.Gosched()
		return
	}
	block(b.delay)
	if b.delay < delayThreshold {
		b.delay *= 10
	}
}

// push is the paper's Figure 6 entry point: try the enforcer push, and if
// it fails (full queue or producer-lock contention — we do not
// distinguish), fall into reSchedule. Producers never wait for space:
// they drain the blocking queue themselves (§4.1.4).
func (s *Scheduler) push(t tuple.Tuple, c *ctx) {
	if inj := s.inj; inj != nil {
		inj.StallFault() // chaos seam: let the destination queue run full
	}
	q := s.queues[t.Port]
	if q.Push(t) {
		return
	}
	s.reSchedule(q, t, c)
}

// reSchedule repeatedly alternates between pushing the stuck tuple and
// draining a bounded amount of the blocking queue on the pusher's own
// time. Executing the blocking operator here is why input-port queues
// carry a consumer lock at all: the port cannot be taken from the free
// list without a destructive walk, but the lock grants exclusive consume
// access without touching global data (§4.1.4).
func (s *Scheduler) reSchedule(q *lfq.Enforcer[tuple.Tuple], t tuple.Tuple, c *ctx) {
	s.reschedules.Add(c.tid, 1)
	s.portResched[t.Port].Add(1)
	// Blocked-time accounting for backpressure attribution: everything
	// from here to return is time the producer could not advance because
	// this port's queue was full. Two clock reads and one atomic add per
	// episode — noise against the spinning and draining this path does.
	blockedFrom := time.Now()
	defer func() {
		s.portBlockedNs[t.Port].Add(uint64(time.Since(blockedFrom)))
	}()
	if s.tr.On() {
		s.tr.Emit(c.tid, trace.KindResched, int64(t.Port))
	}
	// reSchedule nests inside an executing batch (and runs on source
	// threads that have no Thread at all), so it borrows a drain buffer —
	// a thread spare, or a pooled one — instead of using thr.batch.
	// Both the buffer and the execution context are acquired only if a
	// consumer lock is actually won: the pure retry-spin path stays
	// allocation-free.
	var bufp *[]tuple.Tuple
	var buf []tuple.Tuple
	var ec *ctx
	spins := 0
	for !q.Push(t) && !c.finished() {
		// A suspension request is not honored here. This frame is nested
		// inside a batch whose consumer lock it holds, so until the
		// stuck tuple lands the thread is a drainer like any other: it
		// drains the blocking queue, and parks at its next top-level
		// find with no lock held. Were it to stop draining, the running
		// threads could all be pushing into the port it holds, and
		// nothing would drain the queue below (DESIGN.md "Elastic
		// resizing").
		drained := 0
		if q.ConsTryLock() {
			if bufp == nil {
				bufp = s.acquireBatch(c.thr)
				buf = *bufp
				// The drain coalesces like any other, but never opens
				// chain links: it is already run-to-completion, and it
				// may be running on a frame that owns no thread. It does
				// run the port's fused program, which needs neither.
				ec = s.acquireCtx(s.g.Ports[t.Port], c.tid, c.thr)
				ec.chainLeft = -1
			}
			// Drain at most reschedLimit+1 tuples (the pre-batching bound).
			drained = s.drainQueued(c, ec, t.Port, buf, s.reschedLimit+1)
			ec.endCoalesce()
			q.ConsUnlock()
		}
		if drained > 0 {
			spins = 0
		} else if spins++; spins > 8 {
			// Another thread is clearing the queue for us; let it run.
			// (The product busy-waits here; on a host with fewer cores
			// than threads that inverts into livelock, so we yield.)
			runtime.Gosched()
			spins = 0
		}
	}
	if bufp != nil {
		s.releaseBatch(c.thr, bufp)
		s.releaseCtx(ec)
	}
}

// acquireCtx returns a coalescing execution context for draining port
// p, reused across every batch of one drain. Contexts escape into
// operator code through the Submitter interface and so always live on the
// heap; scheduler threads recycle them through a thread-local free list
// (no synchronization — the list is touched only by the owning goroutine)
// so steady-state draining allocates nothing. Source threads, which have
// no Thread, recycle through a shared pool. Callers must call endCoalesce
// before releasing the port's consumer lock.
func (s *Scheduler) acquireCtx(p *graph.InPort, tid int, thr *Thread) *ctx {
	var ec *ctx
	if thr != nil {
		if ec = thr.ctxCache; ec != nil {
			thr.ctxCache = ec.nextFree
		}
	} else {
		ec, _ = s.ctxPool.Get().(*ctx)
	}
	if ec == nil {
		ec = &ctx{slots: make([]slot, maxSlots)}
	}
	// The slot table survives recycling: releaseCtx requires it empty.
	id := p.Node.ID
	*ec = ctx{s: s, node: p.Node, tid: tid, thr: thr, own: s.ownerOf(tid),
		slotBase: s.slotBase[id], slots: ec.slots[:s.numSlots[id]]}
	return ec
}

// ownerOf returns the owner of writer tid: scheduler thread tid, or
// source tid-MaxThreads (the metric-shard convention of SourceSubmitter).
func (s *Scheduler) ownerOf(tid int) *owner {
	if tid < len(s.threads) {
		return &s.threads[tid].owner
	}
	return &s.sources[tid-len(s.threads)].owner
}

// releaseCtx returns a drained port's context to its thread's free list,
// or to the shared pool for thread-less (source) producers. The context
// must hold no coalesced tuples (endCoalesce already ran).
func (s *Scheduler) releaseCtx(ec *ctx) {
	if thr := ec.thr; thr != nil {
		ec.nextFree = thr.ctxCache
		thr.ctxCache = ec
		return
	}
	s.ctxPool.Put(ec)
}

// executeBatch processes a batch of tuples popped from a single port's
// queue through the execution core, handling punctuation inline. The
// caller must hold the port's consumer lock and supply that port's
// drainCtx. Because every tuple targets the same port (batches come from
// one SPSC queue), the routing lookup and the counter updates are paid
// once per span instead of once per tuple, and the execution context is
// shared by all the drain's batches. All tuples in the batch are
// executed unconditionally: they have already left the queue, so stop
// and suspension flags are only consulted between batches by the
// callers.
func (s *Scheduler) executeBatch(ec *ctx, p *graph.InPort, batch []tuple.Tuple) {
	// Execution nests when operators drain downstream queues through
	// reSchedule; restore rather than clear so the outermost frame keeps
	// its executor marked active.
	was := ec.own.active.Swap(true)
	defer ec.own.active.Store(was)
	s.Execute(ec, ec.tid, p, batch)
}

// beginPortsClosed flips the PE into the drained state: all input ports
// have seen their final punctuations. It updates every thread's local
// flag — the walk the paper accepts at shutdown so the hot loop never
// reads shared state (§4.1.2). The core runs it once, before Done
// closes.
func (s *Scheduler) beginPortsClosed() {
	s.portsClosedGlobal.Store(true)
	for _, t := range s.threads {
		t.portsClosed.Store(true)
		t.interrupt()
	}
}

// SourceSubmitter returns the Submitter a source operator thread uses to
// inject tuples. srcIndex identifies the source thread (0-based, the
// index into g.SourceNodes) for metric sharding and for the source's
// owner. A SubmitBatch through it may run a partial batch to completion
// on the source thread (tryChain); Submit always pushes.
func (s *Scheduler) SourceSubmitter(node *graph.Node, srcIndex int) graph.Submitter {
	tid := s.cfg.MaxThreads + srcIndex
	return &ctx{s: s, node: node, tid: tid, own: s.ownerOf(tid), chainLeft: chainDepth, stamp: s.cfg.Latency != nil}
}

// SourceDone tells the scheduler a source operator has finished: the
// scheduler emits final punctuation on all the source's output ports.
func (s *Scheduler) SourceDone(node *graph.Node, srcIndex int) {
	tid := s.cfg.MaxThreads + srcIndex
	exec.Forward(&ctx{s: s, node: node, tid: tid, own: s.ownerOf(tid)}, node, tuple.Final())
}

// Start launches the scheduler at thread level n (clamped to
// [1, MaxThreads]).
func (s *Scheduler) Start(n int) {
	s.SetLevel(n)
}

// SetLevel adjusts the number of unsuspended scheduler threads to n,
// creating thread goroutines on first use and suspending or resuming
// existing ones otherwise. It returns the level actually in effect.
func (s *Scheduler) SetLevel(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.cfg.MaxThreads {
		n = s.cfg.MaxThreads
	}
	s.levelMu.Lock()
	defer s.levelMu.Unlock()
	if s.shutdownGlobal.Load() || s.portsClosedGlobal.Load() {
		return s.level
	}
	for i := 0; i < n; i++ {
		t := s.threads[i]
		if !s.started[i] {
			s.started[i] = true
			s.startWatchdog()
			t.launched.Store(true)
			s.wg.Add(1)
			go func(t *Thread) {
				defer s.wg.Done()
				defer t.exited.Store(true)
				s.schedule(t)
			}(t)
		} else if t.suspended.Load() {
			t.setSuspended(false)
		}
	}
	for i := n; i < s.cfg.MaxThreads; i++ {
		if s.started[i] && !s.threads[i].suspended.Load() {
			s.threads[i].setSuspended(true)
		}
	}
	s.level = n
	return n
}

// Level returns the current thread level.
func (s *Scheduler) Level() int {
	s.levelMu.Lock()
	defer s.levelMu.Unlock()
	return s.level
}

// SuspensionsEffective reports whether every thread asked to suspend has
// actually parked. The elastic controller defers decisions when an
// intended suspension has not happened (§4.2.3).
func (s *Scheduler) SuspensionsEffective() bool {
	s.levelMu.Lock()
	defer s.levelMu.Unlock()
	for i, t := range s.threads {
		if s.started[i] && t.suspended.Load() && !t.parked.Load() && !t.stopRequested() {
			return false
		}
	}
	return true
}

// Shutdown stops all scheduler threads and waits for them to exit, and
// for every source frame to leave operator code, up to the configured
// ShutdownTimeout. On expiry it returns an error naming the threads that
// have not exited and the sources still inside operator code, with a
// goroutine dump, so a wedged operator is diagnosable instead of hanging
// the process. The caller must already have asked source threads to
// stop; a source blocked in reSchedule self-help leaves it here, when
// the stop flags rise.
func (s *Scheduler) Shutdown() error {
	s.shutdownGlobal.Store(true)
	s.levelMu.Lock()
	for _, t := range s.threads {
		t.shutdown.Store(true)
		t.interrupt()
	}
	s.levelMu.Unlock()
	s.stopWatchdog()
	deadline := time.NewTimer(s.cfg.ShutdownTimeout)
	defer deadline.Stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	expired := false
	select {
	case <-done:
	case <-deadline.C:
		expired = true
	}
	// Source frames hold no goroutine of the scheduler's to wait on:
	// poll their active flags, which only a commit or a self-help drain
	// raises, so this loop is entered only when a source is mid-batch.
	for !expired && s.sourcesActive() != nil {
		select {
		case <-deadline.C:
			expired = true
		case <-time.After(time.Millisecond):
		}
	}
	if !expired {
		return nil
	}
	var stuck []int
	for i, t := range s.threads {
		if t.launched.Load() && !t.exited.Load() {
			stuck = append(stuck, i)
		}
	}
	var what []string
	if stuck != nil {
		what = append(what, fmt.Sprintf("scheduler threads %v have not exited", stuck))
	}
	if srcs := s.sourcesActive(); srcs != nil {
		what = append(what, fmt.Sprintf("sources %v are still in operator code", srcs))
	}
	last := ""
	if lf := s.LastFault(); lf != "" {
		last = " (last fault: " + lf + ")"
	}
	return fmt.Errorf("sched: shutdown deadline %v exceeded; %s%s\n%s",
		s.cfg.ShutdownTimeout, strings.Join(what, ", "), last, fault.GoroutineDump(64<<10))
}

// sourcesActive returns the indices of the sources whose frames are
// inside operator code, nil when none is.
func (s *Scheduler) sourcesActive() []int {
	var active []int
	for i := range s.sources {
		if s.sources[i].active.Load() {
			active = append(active, i)
		}
	}
	return active
}

// startWatchdog launches the stall watchdog once, if configured. Caller
// holds levelMu.
func (s *Scheduler) startWatchdog() {
	if s.cfg.WatchdogInterval <= 0 {
		return
	}
	s.watchdogOnce.Do(func() {
		s.watchdogWG.Add(1)
		go s.watchdog()
	})
}

// stopWatchdog ends the watchdog goroutine and waits for it.
func (s *Scheduler) stopWatchdog() {
	select {
	case <-s.watchdogStop:
	default:
		close(s.watchdogStop)
	}
	s.watchdogWG.Wait()
}

// watchdog periodically sweeps every executor — the thread table, then
// the sources — for one that is inside operator code (active), not
// parked, and whose heartbeat epoch has not advanced for longer than
// StallThreshold. Each stall episode is reported once — counted in
// Faults.WatchdogStalls and described in LastFault — and re-arms when
// the executor's heartbeat moves again. The watchdog only observes the
// owners' atomics; it never touches scheduling state, so a wedged
// executor cannot wedge its own detector.
func (s *Scheduler) watchdog() {
	defer s.watchdogWG.Done()
	n := len(s.threads) + len(s.sources)
	last := make([]uint64, n)
	since := make([]time.Time, n)
	reported := make([]bool, n)
	ticker := time.NewTicker(s.cfg.WatchdogInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.watchdogStop:
			return
		case <-s.Done():
			return
		case now := <-ticker.C:
			for i := 0; i < n; i++ {
				o := s.ownerOf(i)
				hb := o.heartbeat.Load()
				if hb != last[i] || !o.active.Load() || (i < len(s.threads) && s.threads[i].parked.Load()) {
					last[i] = hb
					since[i] = now
					reported[i] = false
					continue
				}
				if since[i].IsZero() {
					since[i] = now
					continue
				}
				if d := now.Sub(since[i]); d >= s.cfg.StallThreshold && !reported[i] {
					reported[i] = true
					s.ReportStall(i, fmt.Sprintf(
						"sched: %s stuck in operator code for %v (heartbeat epoch %d)", s.executorName(i), d, hb))
				}
			}
		}
	}
}

// executorName names writer tid in diagnostics: "thread N" for a
// scheduler thread, "source N" for a source thread's frames.
func (s *Scheduler) executorName(tid int) string {
	if tid < len(s.threads) {
		return fmt.Sprintf("thread %d", tid)
	}
	return fmt.Sprintf("source %d", tid-len(s.threads))
}

// Wait blocks until the graph drains (all ports closed) and then stops
// the scheduler threads.
func (s *Scheduler) Wait() {
	<-s.Done()
	s.wg.Wait()
}

// schedule is the paper's Figure 4 main scheduling loop, draining each
// acquired port in batches: the find already paid for touching global
// data (the free list and the consumer lock), so the whole drain runs on
// thread-local state, and batching stretches the same amortization over
// the queue indices and metric shards — one acquire refresh, one release
// store and one counter add per batch of up to batchCap tuples.
func (s *Scheduler) schedule(thr *Thread) {
	// Whatever ends the loop — shutdown or ports closing — flush the
	// thread's shard so no port hint leaves the reachable set with it.
	defer s.drainShard(thr)
	var t tuple.Tuple
	for s.findWorkBlocking(&t, thr) {
		q := s.queues[t.Port]
		port := t.Port
		p := s.g.Ports[port]
		if s.tr.On() {
			s.tr.Emit(thr.id, trace.KindAcquire, int64(port))
		}
		ec := s.acquireCtx(p, thr.id, thr)
		ec.chainLeft = chainDepth
		// findWork popped the first tuple already; complete its batch.
		thr.batch[0] = t
		n := 1 + q.Queue().PopN(thr.batch[1:])
		drained := 0
		// When the port roots a fused run, each batch first tries to run
		// the whole run as one program (nil on unprogrammed graphs: one
		// load and one test per drain).
		fr := s.fusedRuns[port]
		for {
			// Each top-level batch gets a fresh chain tuple allowance:
			// the budget bounds the inline work committed between the
			// suspension checks below, not per drain.
			thr.chainBudget = s.chainBudget0
			if fr == nil || !s.tryFused(ec, fr, port, thr.batch[:n], true) {
				s.executeBatch(ec, p, thr.batch[:n])
			}
			drained += n
			thr.heartbeat.Add(1)
			if thr.suspended.Load() || thr.stopRequested() {
				break
			}
			if n = q.Queue().PopN(thr.batch); n == 0 {
				break
			}
		}
		// Flush coalesced submissions before releasing the consumer lock:
		// stamping and flushing under the same lock is what preserves the
		// per-stream FIFO order at the destination ports.
		ec.endCoalesce()
		q.ConsUnlock()
		if s.tr.On() {
			s.tr.Emit(thr.id, trace.KindRelease, int64(drained))
		}
		s.releaseCtx(ec)
		s.makePortFree(port, thr)
	}
}

// findWorkBlocking is the paper's Figure 5 outer loop: look for work,
// back off exponentially while none exists, honor suspension, and return
// false only when the PE is stopping. Every stop flag it polls is the
// thread's own copy (§4.1.2).
func (s *Scheduler) findWorkBlocking(t *tuple.Tuple, thr *Thread) bool {
	delay := time.Microsecond
	for !thr.stopRequested() {
		thr.heartbeat.Add(1)
		s.parkIfAsked(thr)
		if thr.stopRequested() {
			return false
		}
		if s.findWorkNonBlocking(t, thr) {
			return true
		}
		s.findFails.Add(thr.id, 1)
		block(delay)
		if delay < delayThreshold {
			delay *= 10
		}
	}
	return false
}

// findWorkNonBlocking looks for a port that (1) is in the free
// structure, (2) is not taken by another thread and (3) has a tuple
// queued. On success the caller holds the port's consumer lock and *t
// is the first tuple. The sharded design searches the thread's own
// cache, then steals, then polls the global list; GlobalFreeList walks
// the single global list the paper's way.
func (s *Scheduler) findWorkNonBlocking(t *tuple.Tuple, thr *Thread) bool {
	if s.useShards {
		return s.findWorkSharded(t, thr)
	}
	return s.findWorkFIFO(t, thr)
}

// findWorkFIFO is the paper's Figure 5 free-list walk. It does a
// priming read to remember the first port it saw, pushes unusable ports
// to the back, and abandons the search on any contention or on seeing
// the first port again.
func (s *Scheduler) findWorkFIFO(t *tuple.Tuple, thr *Thread) bool {
	var first int32
	if !s.popFree(&first, thr.id) {
		return false
	}
	if s.tryTake(first, t) {
		return true
	}
	s.requeue(first, thr.id)
	var port int32
	for s.popFree(&port, thr.id) {
		if s.tryTake(port, t) {
			return true
		}
		s.requeue(port, thr.id)
		if port == first {
			break
		}
	}
	return false
}

// Sharded free-list tuning knobs.
const (
	// globalPollEvery forces a look at the global spill list every Nth
	// find even while the local shard keeps producing work, so a
	// spilled port cannot starve indefinitely behind a busy shard.
	globalPollEvery = 32
	// globalPollBatch bounds how many global-list ports one find
	// inspects; unusable ones migrate into the local shard, spreading
	// the initial population and the spills across the threads.
	globalPollBatch = 8
)

// findWorkSharded is the sharded work search: the thread's own LIFO
// cache first (no shared cache lines and no CAS in the common case),
// then the other threads' shards from a random start (work stealing,
// oldest hint first), then the global spill list. The periodic tick
// polls the global list first, so a spilled port cannot starve while
// local work is plentiful.
func (s *Scheduler) findWorkSharded(t *tuple.Tuple, thr *Thread) bool {
	if thr.findTick++; thr.findTick >= globalPollEvery {
		thr.findTick = 0
		if s.pollGlobal(t, thr) {
			return true
		}
	}
	if s.popLocal(t, thr) {
		return true
	}
	if s.steal(t, thr) {
		return true
	}
	return s.pollGlobal(t, thr)
}

// popLocal walks the thread's own shard top-down: pop, try to take, and
// buffer unusable ports in scratch, restoring them in reverse so the
// stacking order survives. The walk terminates within the shard's
// capacity because nobody refills the shard while its owner walks it.
func (s *Scheduler) popLocal(t *tuple.Tuple, thr *Thread) bool {
	scratch := thr.scratch[:0]
	found := false
	var port int32
	for thr.shard.PopBottom(&port) {
		if s.tryTake(port, t) {
			found = true
			break
		}
		if !s.PortClosed(port) {
			scratch = append(scratch, port)
		}
	}
	for i := len(scratch) - 1; i >= 0; i-- {
		s.makePortFree(scratch[i], thr)
	}
	if cap(scratch) > maxScratchCap {
		thr.scratch = make([]int32, 0, maxScratchCap)
	} else {
		thr.scratch = scratch[:0]
	}
	return found
}

// steal tries every other shard once, starting at a random victim and
// wrapping, taking the oldest hint from each non-empty shard it visits;
// the random start keeps concurrent thieves from convoying on shard 0.
// A lost ticket race abandons that victim rather than retrying (the
// paper's contention principle). Stolen-but-unusable hints recirculate
// through the stealer's own release path, which also migrates ports
// away from suspended threads' shards while the owners are not flushing
// them.
func (s *Scheduler) steal(t *tuple.Tuple, thr *Thread) bool {
	n := len(s.shards)
	if n <= 1 {
		return false
	}
	off := int(thr.nextRand() % uint32(n))
	stole := false
	var port int32
	for i := 0; i < n; i++ {
		v := off + i
		if v >= n {
			v -= n
		}
		if v == thr.id {
			continue
		}
		if !s.shards[v].Steal(&port) {
			continue
		}
		s.contention.Steal.Add(thr.id, 1)
		if s.tr.On() {
			s.tr.Emit(thr.id, trace.KindSteal, trace.PackPair(int32(v), uint32(port)))
		}
		stole = true
		if s.tryTake(port, t) {
			return true
		}
		s.makePortFree(port, thr)
	}
	if stole {
		s.contention.StealMiss.Add(thr.id, 1)
	}
	return false
}

// pollGlobal pops a bounded number of ports from the global list —
// initial ports, shard spills, and suspended threads' flushed hints
// land there — and migrates the unusable ones into the local shard.
func (s *Scheduler) pollGlobal(t *tuple.Tuple, thr *Thread) bool {
	var port int32
	for i := 0; i < globalPollBatch; i++ {
		if !s.popFree(&port, thr.id) {
			return false
		}
		if s.tryTake(port, t) {
			return true
		}
		s.makePortFree(port, thr)
	}
	return false
}

// makePortFree returns a port hint to the free structure: under the
// sharded design the calling thread's own shard, spilling to the global
// list on overflow; under GlobalFreeList the global list directly.
// Closed ports are dropped.
func (s *Scheduler) makePortFree(port int32, thr *Thread) {
	if s.PortClosed(port) {
		return
	}
	tid := 0
	if thr != nil {
		tid = thr.id
		if s.useShards {
			if thr.shard.PushBottom(port) {
				return
			}
			s.contention.Spill.Add(tid, 1)
			if s.tr.On() {
				s.tr.Emit(tid, trace.KindSpill, int64(port))
			}
		}
	}
	s.pushGlobalFree(port, tid)
}

// pushGlobalFree pushes a port onto the global free list. The list is
// sized to hold every port, so a failed push is almost always a slot in
// transit (a consumer mid-pop): the shared back-off helper spins
// briefly, then falls into the paper's exponential back-off instead of
// busy-spinning forever on a contended CAS. The push itself can never
// be abandoned — dropping the hint would strand the port.
func (s *Scheduler) pushGlobalFree(port int32, tid int) {
	b := newBackoff()
	for {
		if s.freePorts.PushEx(port) == lfq.PushOK {
			return
		}
		s.contention.PushFail.Add(tid, 1)
		b.wait()
	}
}

// parkIfAsked flushes the thread's shard to the global free list and
// parks when suspension is requested. The flush is the elastic-resize
// protocol: only the owner pushes to a shard, so a parked thread's
// shard is empty and stays empty — no port hint is ever stranded where
// only a suspended thread would look for it. (Thieves may still steal
// concurrently with the flush; the deque handles the race.)
func (s *Scheduler) parkIfAsked(thr *Thread) {
	if !thr.suspended.Load() {
		return
	}
	if s.tr.On() {
		s.tr.Emit(thr.id, trace.KindPark, 0)
	}
	s.drainShard(thr)
	thr.suspendIfAsked()
	if s.tr.On() {
		s.tr.Emit(thr.id, trace.KindUnpark, 0)
	}
}

// drainShard moves every hint in thr's shard to the global list,
// dropping closed ports. PopBottom is owner-only, so this must run on
// thr's own goroutine (it does: parkIfAsked and schedule's exit).
func (s *Scheduler) drainShard(thr *Thread) {
	if !s.useShards {
		return
	}
	var port int32
	for thr.shard.PopBottom(&port) {
		if s.PortClosed(port) {
			continue
		}
		s.pushGlobalFree(port, thr.id)
	}
}

// maxScratchCap bounds the backing array a thread retains for the shard
// walk (popLocal). A walk over a shard holding many idle ports grows
// scratch to the shard's occupancy; without the bound that grown array
// would stay aliased into thr.scratch forever.
const maxScratchCap = 64

// popFree pops the global free list once. A failed pop abandons the
// search to the back-off path instead of retrying (§4.1.3). A false
// return covers both empty and contended (the MPMC cannot tell them
// apart), so the PopFail meter counts the union.
func (s *Scheduler) popFree(v *int32, tid int) bool {
	if s.freePorts.Pop(v) {
		return true
	}
	s.contention.PopFail.Add(tid, 1)
	return false
}

// tryTake attempts to lock port's consumer side and pop a tuple. On
// success the consumer lock is held.
func (s *Scheduler) tryTake(port int32, t *tuple.Tuple) bool {
	q := s.queues[port]
	if q.ConsTryLock() {
		if q.Queue().Pop(t) {
			return true
		}
		q.ConsUnlock()
	}
	return false
}

// requeue returns a port to the back of the global free list unless it
// has closed.
func (s *Scheduler) requeue(port int32, tid int) {
	if s.PortClosed(port) {
		return
	}
	s.pushGlobalFree(port, tid)
}

package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/lfq"
	"streams/internal/tuple"
)

// Thread is one scheduler execution context. The paper's design gives
// every thread its own copies of the suspended, shutdown and portsClosed
// stop conditions so the scheduling loop never polls shared cache lines
// (§4.1.2): whoever needs to stop the threads walks the table and updates
// every thread's local flags.
//
// Threads are goroutines here rather than pthreads; a suspended thread
// parks on a condition variable and consumes no CPU, matching the
// product's mutex+condvar suspension.
// Field layout rule (the cache-line audit, shared with the metrics
// package's shard stride): any word this thread writes at per-batch or
// per-loop rate must sit at least 128 bytes — two 64-byte lines, which
// also covers 128-byte-line hosts — from any word a different thread
// writes. The struct therefore groups fields by writer and hotness with
// explicit pads between the groups: the control-plane flags (written by
// the PE/elastic controller, rarely), the owner-hot progress words
// (written by the scheduling loop every batch), and the cold/owner-only
// tail. Without the pads the controller's occasional suspended store
// and the owner's per-batch heartbeat/active stores ping-pong one line
// between cores; BenchmarkCounterShards demonstrates the same effect on
// the counter shards.
type Thread struct {
	id int

	// Per-thread stop conditions, written by the PE/elastic controller
	// and read only by this thread's scheduling loop.
	suspended   atomic.Bool
	shutdown    atomic.Bool
	portsClosed atomic.Bool

	_ [128]byte // keep controller-written flags off the owner-hot line

	// owner holds the thread's active flag, heartbeat epoch and chain
	// allowance, the state every frame the thread executes charges.
	owner
	// parked is set while the thread is waiting on its condition
	// variable; the elastic controller checks that suspensions actually
	// happened before trusting a measurement period.
	parked atomic.Bool

	_ [128]byte // keep owner-hot stores off the cold tail's lines

	// launched/exited bracket the scheduling goroutine's lifetime so the
	// shutdown deadline path can name exactly which threads failed to
	// exit.
	launched atomic.Bool
	exited   atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond

	// scratch buffers the unusable ports of the shard walk (popLocal).
	// Its retained capacity is bounded (maxScratchCap) so one walk over a
	// huge port set does not pin a proportionally huge array forever.
	scratch []int32

	// batch is the thread's drain buffer: the top-level scheduling loop
	// pops tuples into it in batches so the queue indices and the metric
	// shards are touched once per batch instead of once per tuple. Only
	// the non-nested schedule() loop may use it; nested drains
	// (reSchedule) go through Scheduler.acquireBatch instead.
	batch []tuple.Tuple

	// spares is a small stack of free batch buffers the thread lends out
	// via acquireBatch, so reSchedule drains and coalescing slots skip the
	// shared sync.Pool: it fills from releases up to its fixed capacity
	// (one splitter frame's slots plus a nested drain) and overflows to
	// the pool. Touched only by the thread's own goroutine.
	spares []*[]tuple.Tuple

	// ctxCache heads the thread's free list of recycled execution
	// contexts (Scheduler.acquireCtx/releaseCtx); touched only by the
	// thread's own goroutine.
	ctxCache *ctx

	// shard is the thread's local free-port cache under the sharded free
	// list (nil under GlobalFreeList). Only this thread pushes to or pops
	// the bottom; other threads steal from the top.
	shard *lfq.WSDeque
	// findTick counts findWorkSharded calls to pace the periodic global
	// poll; thread-local, no synchronization.
	findTick int
	// rng is the thread's xorshift state for randomizing steal order;
	// thread-local, never zero.
	rng uint32
}

// owner is the state of one executor — a scheduler thread (embedded in
// Thread) or a source thread (Scheduler.sources) — that every execution
// frame running on it charges (ctx.own). Only the executor's own
// goroutine writes it; the watchdog and the shutdown deadline read
// active and heartbeat.
type owner struct {
	// active is set while the executor is inside operator code and
	// cleared while it is looking for work (or, on a source, producing);
	// the elastic controller uses a thread's to detect threads stuck in
	// user code that cannot be suspended (§4.1.5, §4.2.3).
	active atomic.Bool
	// heartbeat is the progress epoch: bumped once per executed batch,
	// once per find-work iteration, and once per inline chain link. The
	// watchdog reads it to tell "stuck inside one operator call"
	// (active, epoch frozen) from "busy" (epoch advancing) without
	// touching any scheduling state.
	heartbeat atomic.Uint64
	// chainBudget is the inline-chain tuple allowance remaining in the
	// current top-level batch: schedule() refills a thread's from
	// Scheduler.chainBudget0 before each root executeBatch, a source
	// frame's SubmitBatch refills the source's before each delivery, and
	// tryChain and tryFused draw it down.
	chainBudget int
}

// sourceOwner is one source thread's owner, padded on both sides so
// that a source committing batches never writes a cache line another
// source, or a neighbouring allocation, writes (the Thread layout rule).
type sourceOwner struct {
	_ [128]byte
	owner
	_ [128]byte
}

func newThread(id, batchCap int) *Thread {
	t := &Thread{
		id:     id,
		batch:  make([]tuple.Tuple, batchCap),
		spares: make([]*[]tuple.Tuple, 0, maxSlots+2),
		rng:    uint32(id)*2654435761 + 1, // distinct, nonzero xorshift seeds
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// nextRand advances the thread's xorshift32 state; used to randomize
// steal victim order so concurrent thieves fan out instead of
// convoying on shard 0.
func (t *Thread) nextRand() uint32 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	t.rng = x
	return x
}

// ID returns the thread's slot index.
func (t *Thread) ID() int { return t.id }

// stopRequested reports whether the thread must leave its scheduling
// loop.
func (t *Thread) stopRequested() bool {
	return t.shutdown.Load() || t.portsClosed.Load()
}

// suspendIfAsked parks the thread while its suspended flag is set. It
// returns once resumed or once a stop condition arrives.
func (t *Thread) suspendIfAsked() {
	if !t.suspended.Load() {
		return
	}
	t.mu.Lock()
	t.parked.Store(true)
	for t.suspended.Load() && !t.shutdown.Load() && !t.portsClosed.Load() {
		t.cond.Wait()
	}
	t.parked.Store(false)
	t.mu.Unlock()
}

// setSuspended asks the thread to park (true) or resume (false).
func (t *Thread) setSuspended(v bool) {
	t.mu.Lock()
	t.suspended.Store(v)
	t.mu.Unlock()
	t.cond.Broadcast()
}

// interrupt wakes the thread if parked so it can observe newly set stop
// flags.
func (t *Thread) interrupt() {
	t.mu.Lock()
	t.mu.Unlock() //nolint:staticcheck // empty critical section pairs the flag writes with cond.Wait
	t.cond.Broadcast()
}

// block sleeps for the current back-off delay. The paper uses a timed
// condition-variable wait capped at DELAY_THRESHOLD; a timer-based sleep
// is the closest Go equivalent and keeps suspended threads cheap.
func block(delay time.Duration) {
	time.Sleep(delay)
}

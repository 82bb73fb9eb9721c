// Package metrics provides the measurement plumbing for the runtime:
// sharded tuple counters that do not reintroduce the global-data
// contention the scheduler works to avoid, periodic throughput sampling,
// and the small statistics helpers the experiment harness uses for its
// mean/stddev error bars.
package metrics

import (
	"math"
	"sync/atomic"
)

// shardStride spaces counter shards so each lives on its own cache line
// (16 × 8 bytes = 128 bytes, covering Power8-style lines too).
//
// Layout rule (the cache-line audit, shared with sched.Thread): any
// word one thread writes at per-tuple or per-batch rate must sit at
// least 128 bytes from any word a different thread writes or polls.
// Shard 0 starts at offset 0 of its own allocation and successive
// shards are a full stride apart, so no two shards — and no shard and
// any neighboring heap object's hot field — share a line.
// BenchmarkCounterShards holds the line: it compares this layout
// against a deliberately unpadded stride-1 variant under parallel
// writers.
const shardStride = 16

// Counter is a monotonically increasing tuple counter sharded across a
// fixed number of slots. Each executing thread increments its own shard
// (by thread ID), so the hot path is a single uncontended atomic add;
// readers sum the shards. This mirrors the paper's principle of keeping
// threads off shared cache lines (§4.1.2).
//
// Snapshot contract: a Counter is strictly monotonic — there is
// deliberately no Reset, so a Total read never races with reuse and
// every read is a valid lower bound of every later read. Code that
// derives a ratio or difference across *several* counters (steals per
// spill, dead-letters versus delivered) must not call Total on each in
// sequence: the counters advance between the calls and the ratio comes
// out torn. Read them through the owning bundle's Snapshot method (or
// the scheduler's Stats), which reads the whole set in one pass so the
// values are mutually consistent to within the increments in flight
// during that pass.
type Counter struct {
	shards []atomic.Uint64
	// mask selects a shard from a thread ID with one AND instead of the
	// modulo-of-a-division the hot path would otherwise recompute on
	// every call; the shard count is rounded up to a power of two at
	// construction to make that possible.
	mask uint64
}

// NewCounter returns a counter with at least the given number of shards
// (rounded up to a power of two); callers pass the maximum number of
// executing threads. A non-positive value is treated as 1.
func NewCounter(shards int) *Counter {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Counter{
		shards: make([]atomic.Uint64, n*shardStride),
		mask:   uint64(n - 1),
	}
}

// Add increments shard tid by n. tid values beyond the shard count wrap,
// preserving correctness (only spreading degrades). Batch-friendly by
// design: charging a whole drained batch with one Add(tid, n) costs the
// same single uncontended atomic add as charging one tuple, so callers
// moving tuples in batches should accumulate locally and charge once.
func (c *Counter) Add(tid int, n uint64) {
	c.shards[(uint64(tid)&c.mask)*shardStride].Add(n)
}

// Total sums all shards. The result is a lower bound of the true count at
// return time, exactly like reading any concurrently updated metric.
func (c *Counter) Total() uint64 {
	var t uint64
	for i := 0; i < len(c.shards); i += shardStride {
		t += c.shards[i].Load()
	}
	return t
}

// The meter bundles. Each is declared once: its live struct of sharded
// Counters (charged on the typed fields, e.g. chains.Links.Add(tid, 1))
// beside its snapshot struct, whose fields carry the same names in the
// same order and the JSON tags every presenter uses as the meter's
// kind. New, Snapshot and Each (bundle.go) are derived from that pair,
// so adding a meter is two lines, one in each struct.

// Contention bundles the scheduler's free-list contention meters. The
// scheduler charges them on its slow paths only (a failed push, a
// steal, a spill); the hot path pays nothing.
type Contention struct {
	// PushFail counts failed pushes to the global free list (a slot in
	// transit, or — out of an abundance of accounting — a full list).
	PushFail *Counter
	// PopFail counts global free-list pops that came back empty-handed;
	// the MPMC cannot distinguish empty from contended, so this is the
	// union of both.
	PopFail *Counter
	// Steal counts ports taken from another thread's shard.
	Steal *Counter
	// StealMiss counts steal sweeps that obtained at least one port but
	// found no runnable work among them.
	StealMiss *Counter
	// Spill counts local-shard overflows redirected to the global list.
	Spill *Counter
	bundle[ContentionSnapshot]
}

// ContentionSnapshot is a point-in-time reading of a Contention set.
// Readers that present more than one of these values together (panels,
// the debug endpoint) must take one snapshot and render from it, never
// mix values from two snapshots.
type ContentionSnapshot struct {
	PushFail  uint64 `json:"push_fail"`
	PopFail   uint64 `json:"pop_fail"`
	Steal     uint64 `json:"steal"`
	StealMiss uint64 `json:"steal_miss"`
	Spill     uint64 `json:"spill"`
}

// Faults bundles the runtime's fault-containment meters. Like
// Contention, these are charged only on slow paths (a recovered panic,
// a dead-lettered tuple, a watchdog report); the fault-free hot path
// never touches them.
type Faults struct {
	// OpPanics counts operator panics recovered by the containment layer
	// (injected panics included).
	OpPanics *Counter
	// DeadLetters counts data tuples that were consumed from a queue but
	// not processed: the tuple whose execution panicked, and every tuple
	// subsequently routed to a quarantined operator. Tuple conservation
	// is delivered + dead-lettered == generated.
	DeadLetters *Counter
	// Quarantines counts operators quarantined after accumulating their
	// strike budget.
	Quarantines *Counter
	// WatchdogStalls counts watchdog reports of a scheduler thread stuck
	// in operator code past the stall threshold.
	WatchdogStalls *Counter
	bundle[FaultsSnapshot]
}

// FaultsSnapshot is a point-in-time reading of a Faults set.
type FaultsSnapshot struct {
	OpPanics       uint64 `json:"op_panics"`
	DeadLetters    uint64 `json:"dead_letters"`
	Quarantines    uint64 `json:"quarantines"`
	WatchdogStalls uint64 `json:"watchdog_stalls"`
}

// Chain bundles the scheduler's inline chain-execution meters. Links
// and Tuples are charged once per chained link (a batch, not a tuple),
// so even a run that chains every flush pays two uncontended atomic
// adds per batch; the stop meters are charged only when a chain attempt
// declines.
type Chain struct {
	// Starts counts chain sequences entered from an unchained execution
	// frame (a root drain). Links/Starts is the mean chain length.
	Starts *Counter
	// Links counts inline link executions; each one bypassed a queue
	// push, a free-list hint cycle, and a cross-thread drain hand-off.
	Links *Counter
	// Tuples counts tuples moved through chained links without ever
	// touching a queue (the bypass volume).
	Tuples *Counter
	// DepthStops counts flushes to a chainable port that fell back to
	// the queue because the link-depth budget was exhausted.
	DepthStops *Counter
	// BudgetStops counts chain attempts declined because the per-drain
	// tuple budget was exhausted.
	BudgetStops *Counter
	// LockMisses counts chain attempts that lost the destination's
	// consumer try-lock to a concurrent drainer.
	LockMisses *Counter
	// Occupied counts chain attempts declined because the destination
	// queue held tuples (chaining ahead of them would break per-stream
	// FIFO).
	Occupied *Counter
	// SourceCommits counts partial source batches committed on the
	// source's own thread at the push instead of queued: the input-bound
	// run-to-completion path, per source batch (its links also count in
	// Starts, Links and Tuples, or in the fused-run meters).
	SourceCommits *Counter
	bundle[ChainSnapshot]
}

// ChainSnapshot is a point-in-time reading of a Chain set.
type ChainSnapshot struct {
	Starts        uint64 `json:"starts"`
	Links         uint64 `json:"links"`
	Tuples        uint64 `json:"tuples"`
	DepthStops    uint64 `json:"depth_stops"`
	BudgetStops   uint64 `json:"budget_stops"`
	LockMisses    uint64 `json:"lock_misses"`
	Occupied      uint64 `json:"occupied"`
	SourceCommits uint64 `json:"source_commits"`
}

// VM bundles the bytecode-dispatch meters: how many operators compiled
// to programs, how often the scheduler ran fused superinstruction
// batches, the tuple volume through those fused loops, and how often a
// fused attempt fell back to per-operator dispatch.
type VM struct {
	// Programs counts operator programs installed at graph build
	// (charged once per fused run set, not per tuple).
	Programs *Counter
	// FusedRuns counts chain batches executed as one fused program.
	FusedRuns *Counter
	// FusedTuples counts tuples pushed through fused dispatch loops —
	// each skipped per-operator Process calls and Submitter hops.
	FusedTuples *Counter
	// Fallbacks counts chain batches that were eligible for fused
	// dispatch but declined (locks, occupancy, budget, puncts) and ran
	// the per-operator path instead.
	Fallbacks *Counter
	// VecBatches counts fused batches executed through the vectorized
	// batch-at-a-time machine (one dispatch per instruction per batch).
	VecBatches *Counter
	// VecRows counts rows pushed through vectorized lanes.
	VecRows *Counter
	// VecFallbacks counts fused batches that ran the scalar dispatch
	// loop instead: no vectorized plan, batch under the program's
	// cutoff, or a panic-triggered scalar replay.
	VecFallbacks *Counter
	// VecAborts counts the replay subset of VecFallbacks: batches whose
	// vectorized compute phase panicked mid-batch (emitting nothing)
	// and were replayed tuple-at-a-time. Each such batch pays the
	// vectorized compute cost AND the full scalar run, so a recurring
	// per-batch fault shows here, distinct from the benign "program
	// declined vectorization" fall-backs.
	VecAborts *Counter
	bundle[VMSnapshot]
}

// VMSnapshot is a point-in-time reading of a VM set.
type VMSnapshot struct {
	Programs     uint64 `json:"programs"`
	FusedRuns    uint64 `json:"fused_runs"`
	FusedTuples  uint64 `json:"fused_tuples"`
	Fallbacks    uint64 `json:"fallbacks"`
	VecBatches   uint64 `json:"vec_batches"`
	VecRows      uint64 `json:"vec_rows"`
	VecFallbacks uint64 `json:"vec_fallbacks"`
	VecAborts    uint64 `json:"vec_aborts"`
}

// Ingest bundles the admission-control meters for the network front
// end: tuple dispositions at the admission seam (admitted past the
// token bucket into a tenant queue, throttled by the bucket, shed by a
// queue-overflow or priority policy), plus connection-level events.
type Ingest struct {
	// Admitted counts tuples accepted into a tenant queue.
	Admitted *Counter
	// Shed counts tuples dropped by a shed policy: queue overflow
	// under shed-oldest/shed-newest, or best-effort tuples refused at
	// admission while the runtime is backlogged.
	Shed *Counter
	// Throttled counts tuples rejected by a tenant's token bucket.
	Throttled *Counter
	// Rejected counts tuples refused for structural reasons: unknown
	// tenant, malformed frame, or arrival after drain began.
	Rejected *Counter
	// Conns counts accepted client connections.
	Conns *Counter
	// Evicted counts connections closed by the idle/slow-client
	// evictor rather than by the client.
	Evicted *Counter
	bundle[IngestSnapshot]
}

// IngestSnapshot is a point-in-time reading of an Ingest set. The
// connection events count connections, not tuples, so they carry their
// own group.
type IngestSnapshot struct {
	Admitted  uint64 `json:"admitted"`
	Shed      uint64 `json:"shed"`
	Throttled uint64 `json:"throttled"`
	Rejected  uint64 `json:"rejected"`
	Conns     uint64 `json:"conns" group:"conn_events"`
	Evicted   uint64 `json:"evicted" group:"conn_events"`
}

// Welford accumulates streaming mean and standard deviation (Welford's
// algorithm). The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// StdDev returns the sample standard deviation (0 with fewer than two
// observations).
func (w *Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

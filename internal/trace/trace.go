// Package trace is the runtime's scheduler event tracer: per-thread,
// fixed-size ring buffers that record scheduler decisions — port
// acquires and releases, free-list steals and spills, parks and
// unparks, reschedules, quarantine strikes, and elasticity level
// changes — with nanosecond timestamps, cheap enough to leave compiled
// into the hot path.
//
// The tracer obeys the same discipline as the scheduler it observes
// (the paper's §4.1.2 principle): every executing thread writes only
// its own ring, so recording an event touches no shared cache lines and
// takes no lock; the only shared state is a single enabled flag, read
// with one atomic load. Callers gate emission with On(), which is
// nil-receiver-safe and inlines to a nil check plus that load, so a
// runtime built without a tracer pays a nil check and a runtime with a
// disabled tracer pays ~1ns per seam (BenchmarkTraceOverhead holds the
// line).
//
// Rings are bounded and wrap: tracing overwrites the oldest events
// instead of ever blocking or allocating. Snapshot drops the (rare)
// events the writer overtook mid-read, so readers always observe
// consistent records even while the run is live. Every slot field is an
// atomic word, which keeps the reader/writer race benign under the Go
// memory model and clean under the race detector.
package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies one scheduler decision recorded in a ring.
type Kind uint8

const (
	// KindNone marks an empty slot; never emitted.
	KindNone Kind = iota
	// KindAcquire marks a thread winning a port's consumer lock with
	// work queued; arg is the port ID. Paired with the next KindRelease
	// on the same ring by the trace_event export.
	KindAcquire
	// KindRelease marks the end of a port drain; arg is the number of
	// tuples drained (the batch-drain record).
	KindRelease
	// KindSteal marks a port hint taken from another thread's shard;
	// arg packs victim<<32|port.
	KindSteal
	// KindSpill marks a local-shard overflow redirected to the global
	// free list; arg is the port ID.
	KindSpill
	// KindPark marks a thread parking on its suspension condvar. Paired
	// with the next KindUnpark on the same ring by the export.
	KindPark
	// KindUnpark marks a parked thread resuming.
	KindUnpark
	// KindResched marks a full-queue push falling into the reSchedule
	// self-help path; arg is the blocking port ID.
	KindResched
	// KindQuarantine marks an operator quarantined after exhausting its
	// strike budget; arg is the node ID.
	KindQuarantine
	// KindElastic marks an elasticity level change; arg packs
	// level<<32|throughput (tuples/s, saturating at 2^32-1).
	KindElastic
	// KindChain marks one inline chain link: the executing thread won
	// the downstream port's consumer lock and ran the operator directly
	// instead of queueing; arg packs depth<<32|port, where depth is the
	// 1-based link position in its chain.
	KindChain
	// KindChainStop marks a chain attempt that fell back to the queue;
	// arg packs reason<<32|port (see the ChainStop constants).
	KindChainStop
	// KindVMFuse marks a chain batch committed to fused bytecode
	// dispatch: the whole operator run executed as one superinstruction
	// program, no per-operator Process calls; arg packs segs<<32|port,
	// where segs is the fused chain length.
	KindVMFuse
	// KindAdmit marks a batch of tuples admitted past ingest admission
	// into a tenant queue; arg packs tenant<<32|count.
	KindAdmit
	// KindShed marks a batch of tuples dropped by an ingest shed
	// policy (queue overflow under shed-oldest/shed-newest, or priority
	// shedding under global overload); arg packs tenant<<32|count.
	KindShed
	// KindThrottle marks a batch rejected by a tenant's token bucket —
	// the client exceeded its contracted rate; arg packs
	// tenant<<32|count.
	KindThrottle
	// KindBPSample marks one flow-observability sampling tick: the obs
	// collector read every edge's queue occupancy and recorded the most
	// occupied one; arg packs port<<32|occupancy for that edge (port -1
	// when every queue was empty).
	KindBPSample
	// KindFlightRec marks a flight-recorder dump: fault containment or
	// the ingest overload gate fired and the recent-history ring was
	// persisted; arg packs reason<<32|samples (see the FlightRec
	// constants).
	KindFlightRec
	// KindVMVec marks a fused chain batch executed through the
	// vectorized batch-at-a-time machine: the whole batch decoded into
	// lanes and every instruction dispatched once per batch; arg packs
	// rows<<32|port, where rows is the batch size.
	KindVMVec
	// KindVMVecAbort marks a vectorized compute phase that panicked
	// mid-batch (having emitted nothing) and was replayed through the
	// scalar dispatch loop — the batch paid vectorized compute AND a
	// full scalar run, so a recurring abort on the same operator is a
	// silent 2x worth surfacing; arg packs rows<<32|port like KindVMVec.
	KindVMVecAbort

	numKinds
)

// ChainStop reason codes, packed into KindChainStop's arg high word.
const (
	// ChainStopDepth: the link-depth budget was exhausted.
	ChainStopDepth int32 = iota
	// ChainStopBudget: the per-drain tuple budget was exhausted.
	ChainStopBudget
	// ChainStopLock: the destination's consumer try-lock was lost.
	ChainStopLock
	// ChainStopOccupied: the destination queue held tuples (FIFO bars
	// chaining ahead of them).
	ChainStopOccupied
	// ChainStopHalt: suspension or shutdown was requested.
	ChainStopHalt
)

// FlightRec reason codes, packed into KindFlightRec's arg high word.
const (
	// FlightRecQuarantine: an operator was quarantined.
	FlightRecQuarantine int32 = iota
	// FlightRecWatchdog: the scheduler watchdog saw a stalled thread.
	FlightRecWatchdog
	// FlightRecShutdown: shutdown missed its drain deadline.
	FlightRecShutdown
	// FlightRecOverload: the ingest overload gate tripped.
	FlightRecOverload
	// FlightRecManual: an operator-requested dump (CLI or /debugz).
	FlightRecManual
)

// Arg is one argument in a kind's schema.
type Arg struct {
	// Name is the argument's key in the trace_event export.
	Name string
	// Min is the least valid value of a numeric argument.
	Min int64
	// Enum, when set, makes the argument a closed set of reason names
	// indexed by the code the runtime packs; it exports as the name.
	Enum []string
}

// kindInfo is one row of the kind registry.
type kindInfo struct {
	name string
	// args is the schema of the event's arg word: none, one (the whole
	// word), or two (hi<<32|lo, see PackPair).
	args []Arg
}

// kinds is the registry: the one declaration of every kind's stable
// name (the trace_event event name, the -require vocabulary) and its
// argument schema. The exporter renders args from it and tracecheck
// validates them against it, so a new kind is one row here.
var kinds = [numKinds]kindInfo{
	KindAcquire:    {"acquire", []Arg{{Name: "port"}}},
	KindRelease:    {"release", []Arg{{Name: "tuples"}}},
	KindSteal:      {"steal", []Arg{{Name: "victim"}, {Name: "port"}}},
	KindSpill:      {"spill", []Arg{{Name: "port"}}},
	KindPark:       {"park", nil},
	KindUnpark:     {"unpark", nil},
	KindResched:    {"resched", []Arg{{Name: "port"}}},
	KindQuarantine: {"quarantine", []Arg{{Name: "node"}}},
	KindElastic:    {"elastic-level", []Arg{{Name: "level"}, {Name: "throughput"}}},
	KindChain:      {"chain", []Arg{{Name: "depth", Min: 1}, {Name: "port"}}},
	KindChainStop: {"chain-stop", []Arg{{Name: "reason", Enum: []string{
		ChainStopDepth: "depth", ChainStopBudget: "budget", ChainStopLock: "lock",
		ChainStopOccupied: "occupied", ChainStopHalt: "halt",
	}}, {Name: "port"}}},
	KindVMFuse:   {"vm-fuse", []Arg{{Name: "segs", Min: 2}, {Name: "port"}}},
	KindAdmit:    {"admit", []Arg{{Name: "tenant"}, {Name: "count", Min: 1}}},
	KindShed:     {"shed", []Arg{{Name: "tenant"}, {Name: "count", Min: 1}}},
	KindThrottle: {"throttle", []Arg{{Name: "tenant"}, {Name: "count", Min: 1}}},
	// port is -1 when every queue was empty at the sample.
	KindBPSample: {"bp-sample", []Arg{{Name: "port", Min: -1}, {Name: "occ"}}},
	KindFlightRec: {"flightrec-dump", []Arg{{Name: "reason", Enum: []string{
		FlightRecQuarantine: "quarantine", FlightRecWatchdog: "watchdog",
		FlightRecShutdown: "shutdown-deadline", FlightRecOverload: "overload",
		FlightRecManual: "manual",
	}}, {Name: "samples"}}},
	KindVMVec:      {"vm-vec", []Arg{{Name: "rows", Min: 1}, {Name: "port"}}},
	KindVMVecAbort: {"vm-vec-abort", []Arg{{Name: "rows", Min: 1}, {Name: "port"}}},
}

func (k Kind) info() kindInfo {
	if k < numKinds {
		return kinds[k]
	}
	return kindInfo{}
}

// String implements fmt.Stringer; the names double as trace_event event
// names, so they are stable.
func (k Kind) String() string {
	if n := k.info().name; n != "" {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Args returns the kind's argument schema (shared; do not modify).
func (k Kind) Args() []Arg { return k.info().args }

// AllKinds returns every emitted kind in declaration order.
func AllKinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := KindNone + 1; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// KindNames returns every emitted kind's name in declaration order —
// a stable ordering for presenters that render Kinds tallies.
func KindNames() []string {
	names := make([]string, 0, numKinds-1)
	for _, k := range AllKinds() {
		names = append(names, k.String())
	}
	return names
}

// reason names an Enum argument's code.
func (a Arg) reason(code int32) string {
	if code >= 0 && int(code) < len(a.Enum) {
		return a.Enum[code]
	}
	return fmt.Sprintf("reason(%d)", code)
}

// value renders one argument for export: its reason name for an Enum,
// the number otherwise.
func (a Arg) value(v int64) any {
	if a.Enum != nil {
		return a.reason(int32(v))
	}
	return v
}

// exportArgs decodes an event's arg word by its kind's schema into the
// args map the trace_event export carries (nil for a kind with none).
func (k Kind) exportArgs(arg int64) map[string]any {
	as := k.Args()
	switch len(as) {
	case 0:
		return nil
	case 1:
		return map[string]any{as[0].Name: as[0].value(arg)}
	}
	hi, lo := UnpackPair(arg)
	return map[string]any{as[0].Name: as[0].value(int64(hi)), as[1].Name: as[1].value(int64(lo))}
}

// ChainStopReason names a ChainStop code.
func ChainStopReason(code int32) string { return kinds[KindChainStop].args[0].reason(code) }

// FlightRecReason names a FlightRec code.
func FlightRecReason(code int32) string { return kinds[KindFlightRec].args[0].reason(code) }

// PackPair packs two 32-bit values into one event arg (every kind whose
// schema has two args).
func PackPair(hi int32, lo uint32) int64 {
	return int64(hi)<<32 | int64(lo)
}

// UnpackPair reverses PackPair.
func UnpackPair(arg int64) (hi int32, lo uint32) {
	return int32(arg >> 32), uint32(arg)
}

// Event is one decoded trace record.
type Event struct {
	// TS is the event time as an offset from the tracer's start.
	TS time.Duration
	// Ring is the index of the ring (≈ thread) that recorded the event.
	Ring int
	// Kind is the decision recorded.
	Kind Kind
	// Arg is the kind-specific argument (see the Kind constants).
	Arg int64
}

// slot is one ring entry: the timestamp and kind packed into one atomic
// word (ts<<8|kind; 2^56ns ≈ 2.3 years of run time), the argument in a
// second, and the slot's 1-based sequence number in a third. Atomic
// words make concurrent snapshot reads well-defined under the Go memory
// model; the sequence word resolves the wrap-race between a lapping
// writer and a reader exactly: the writer zeroes it before rewriting
// the data words and stores the new sequence after, so a reader that
// observes the expected sequence on both sides of its data reads knows
// the slot held that generation throughout.
type slot struct {
	seq atomic.Uint64
	w0  atomic.Uint64
	w1  atomic.Uint64
}

// Ring is one thread's event buffer. Exactly one goroutine may record
// into a ring (the owning thread); any goroutine may snapshot it.
type Ring struct {
	head atomic.Uint64 // next sequence number to write; monotonic
	buf  []slot
	mask uint64
	// pad keeps the write-hot head off the next ring's cache lines when
	// rings end up adjacent in memory.
	_ [48]byte
}

func newRing(capacity int) *Ring {
	return &Ring{buf: make([]slot, capacity), mask: uint64(capacity - 1)}
}

// record appends one event. Owner-only: the head load/store pair is not
// a read-modify-write because no other goroutine writes head.
func (r *Ring) record(ts int64, k Kind, arg int64) {
	h := r.head.Load()
	s := &r.buf[h&r.mask]
	s.seq.Store(0) // invalidate while the data words are in flux
	s.w0.Store(uint64(ts)<<8 | uint64(k))
	s.w1.Store(uint64(arg))
	s.seq.Store(h + 1)
	r.head.Store(h + 1)
}

// snapshot appends the ring's events, oldest first, to out. Each slot
// is validated against its sequence word before and after the data
// reads, so events the writer overwrote (or was overwriting) during the
// walk are dropped rather than returned torn, and a quiescent ring
// yields every event it holds.
func (r *Ring) snapshot(ring int, out []Event) []Event {
	h1 := r.head.Load()
	capacity := uint64(len(r.buf))
	lo := uint64(0)
	if h1 > capacity {
		lo = h1 - capacity
	}
	for i := lo; i < h1; i++ {
		s := &r.buf[i&r.mask]
		if s.seq.Load() != i+1 {
			continue // overwritten by a lapping writer, or mid-write
		}
		w0 := s.w0.Load()
		w1 := s.w1.Load()
		if s.seq.Load() != i+1 {
			continue // writer moved in during the data reads
		}
		out = append(out, Event{
			TS:   time.Duration(w0 >> 8),
			Ring: ring,
			Kind: Kind(w0 & 0xff),
			Arg:  int64(w1),
		})
	}
	return out
}

// Tracer is a set of per-thread rings behind one enable gate.
type Tracer struct {
	enabled atomic.Bool
	start   time.Time
	rings   []*Ring
	labels  []string
}

// DefaultRingCap is the per-ring capacity used when New is given a
// non-positive one: 8192 events ≈ 128KiB per thread.
const DefaultRingCap = 8192

// New returns a tracer with the given number of rings, each holding
// perRingCap events (rounded up to a power of two; ≤0 selects
// DefaultRingCap). Rings map one-to-one onto event writers — scheduler
// threads, source threads, the elasticity controller — and out-of-range
// ring indices drop silently, so sizing short loses events rather than
// corrupting them. The tracer starts disabled.
func New(rings, perRingCap int) *Tracer {
	if rings < 1 {
		rings = 1
	}
	if perRingCap <= 0 {
		perRingCap = DefaultRingCap
	}
	c := 1
	for c < perRingCap {
		c <<= 1
	}
	t := &Tracer{
		start:  time.Now(),
		rings:  make([]*Ring, rings),
		labels: make([]string, rings),
	}
	for i := range t.rings {
		t.rings[i] = newRing(c)
		t.labels[i] = fmt.Sprintf("ring-%d", i)
	}
	return t
}

// Rings returns the number of rings. By convention a tracer built for a
// PE has one ring per scheduler thread slot, then one per source
// thread, then one final ring for the elasticity controller.
func (t *Tracer) Rings() int { return len(t.rings) }

// SetLabel names a ring for the trace_event export (thread names in
// Perfetto). Call before Enable; out-of-range indices are ignored.
func (t *Tracer) SetLabel(ring int, label string) {
	if t == nil || ring < 0 || ring >= len(t.labels) {
		return
	}
	t.labels[ring] = label
}

// Enable opens the gate. Events emitted before Enable are dropped.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable closes the gate; in-flight Emit calls may still land.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// On reports whether the tracer exists and is enabled. It is the hot
// seams' gate: nil-receiver-safe and small enough to inline, so a
// disabled tracer costs one atomic load and an absent one costs a nil
// check.
func (t *Tracer) On() bool {
	return t != nil && t.enabled.Load()
}

// Emit records one event on the given ring. Callers must respect the
// single-writer rule: only the goroutine that owns ring may emit on it.
// Nil tracers, disabled tracers and out-of-range rings drop the event.
func (t *Tracer) Emit(ring int, k Kind, arg int64) {
	if !t.On() || ring < 0 || ring >= len(t.rings) {
		return
	}
	t.rings[ring].record(int64(time.Since(t.start)), k, arg)
}

// Snapshot decodes every ring, merged and sorted by timestamp. It is
// safe while the run is live: events overtaken by their writer during
// the read are dropped rather than returned torn.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i, r := range t.rings {
		out = r.snapshot(i, out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

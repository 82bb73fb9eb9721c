// Package pe implements the processing element: the unit that loads a
// stream graph and executes it under one of the paper's three threading
// models (§2.2).
//
//   - Manual: a single logical thread of control; every source thread
//     executes its entire downstream subgraph by direct function calls,
//     with no queues and no tuple copies.
//   - Dedicated: every operator input port gets its own dedicated thread
//     and queue, so threads scale linearly with operators.
//   - Dynamic: the paper's contribution — a pool of scheduler threads,
//     any of which can execute any operator, optionally grown and shrunk
//     at runtime by the elasticity controller.
//
// A PE owns the source operator threads (which it cannot schedule, only
// ask to stop), the scheduler threads, and the adaptation loop.
package pe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/cpuutil"
	"streams/internal/elastic"
	"streams/internal/exec"
	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/sched"
	"streams/internal/trace"
)

// Model selects a threading model.
type Model int

const (
	// Dynamic uses the scalable operator scheduler. It is the zero value
	// because it is the Streams 4.2 default for automatically fused PEs.
	Dynamic Model = iota
	// Manual is the pre-4.2 default: no scheduler threads.
	Manual
	// Dedicated gives each operator input port its own thread.
	Dedicated
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Manual:
		return "manual"
	case Dedicated:
		return "dedicated"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Sample is one adaptation-period observation, delivered to the Trace
// callback: the Fig. 11 series.
type Sample struct {
	// Elapsed is time since Start.
	Elapsed time.Duration
	// Throughput is tuples processed per second across all operators
	// during the period.
	Throughput float64
	// Level is the thread level chosen for the next period.
	Level int
	// Rule names the controller rule that made the decision (the
	// elasticity decision log; see elastic.Rule).
	Rule string
}

// Config parametrizes a PE. It is the one place a PE setting is
// declared: New resolves the defaults and builds the dynamic
// scheduler's sched.Config from the result.
type Config struct {
	// Model selects the threading model. Default Dynamic.
	Model Model
	// Threads is the Dynamic model's initial (or static) thread level.
	// Default 1.
	Threads int
	// Elastic enables runtime thread adaptation (Dynamic only).
	Elastic bool
	// AdaptPeriod is the elasticity measurement period. Default 10s,
	// the product's setting; tests and benchmarks use much less.
	AdaptPeriod time.Duration
	// MaxThreads caps the dynamic thread level; the scheduler's thread
	// table is MaxThreads raised to Threads. Default
	// sched.DefaultMaxThreads().
	MaxThreads int
	// CPUUsage supplies the elasticity CPU gate; nil selects /proc/stat.
	CPUUsage cpuutil.UsageFunc
	// Trace, if set, observes every adaptation period.
	Trace func(Sample)
	// QueueCap is the per-input-port queue capacity of the dedicated and
	// dynamic models; it must be a power of two. Default
	// sched.DefaultQueueCap.
	QueueCap int
	// Fault installs a chaos injector, consulted at the operator and
	// queue seams of whichever runner executes the graph. Nil (the
	// default) means no injection and no injection cost.
	Fault *fault.Injector
	// QuarantineAfter is the per-operator panic budget before the
	// execution core quarantines it. Default 3.
	QuarantineAfter int
	// ShutdownTimeout bounds Stop's wait for the sources to return and
	// the graph to drain, and the dynamic scheduler's wait for its
	// threads to exit on shutdown. It must not be negative. Default
	// sched.DefaultShutdownTimeout.
	ShutdownTimeout time.Duration
	// WatchdogInterval enables the dynamic scheduler's stall watchdog at
	// the given sweep period. 0 (the default) disables it.
	WatchdogInterval time.Duration
	// StallThreshold is how long a scheduler thread or a source frame
	// may sit inside operator code without progress before the watchdog
	// reports it.
	// Default 2×WatchdogInterval.
	StallThreshold time.Duration
	// Tracer, if set, records scheduler decisions and elasticity level
	// changes into per-thread rings (Dynamic only). Size it with
	// pe.TraceRings.
	Tracer *trace.Tracer
	// Latency, if set, measures end-to-end tuple latency: stamped at the
	// source-submit seam, charged to this histogram at the sink-drain
	// seam. Honored by every threading model.
	Latency *metrics.Histogram
	// GlobalFreeList runs the dynamic scheduler on the paper's single
	// global free list instead of the sharded per-thread caches (see
	// sched.Config.GlobalFreeList).
	GlobalFreeList bool
}

// PE is a processing element executing one graph. Create with New, run
// with Start, then either Wait for bounded sources to drain or Stop to
// end an unbounded run.
type PE struct {
	g   *graph.Graph
	cfg Config

	// core executes the operators under every threading model and holds
	// the execution meters, the containment state and the drain state.
	core   *exec.Core
	runner runner

	stopSources chan struct{}
	sourcesWG   sync.WaitGroup
	// sourceExited[i] is set once source i's thread has returned from
	// Run and emitted its final punctuation: what Stop's deadline error
	// names the stuck sources by.
	sourceExited []atomic.Bool
	adaptWG      sync.WaitGroup
	adaptStop    chan struct{}
	started      atomic.Bool
	stopped      atomic.Bool

	errMu sync.Mutex
	err   error

	level atomic.Int64
}

// runner abstracts how the three threading models place operator
// execution on threads; what an execution does is the core's.
type runner interface {
	// start launches the model's execution threads.
	start() error
	// sourceSubmitter returns the submitter for source i.
	sourceSubmitter(i int) graph.Submitter
	// sourceDone signals source i finished (final punctuation).
	sourceDone(i int)
	// backlog returns the total tuple occupancy across the runner's
	// queues (0 for the queueless manual model).
	backlog() int
	// shutdown stops all execution threads, bounded by the configured
	// shutdown deadline where the model has one.
	shutdown() error
}

// New validates the configuration and builds a PE.
func New(g *graph.Graph, cfg Config) (*PE, error) {
	cfg = cfg.withDefaults()
	// Rejected here for every model, so each runner receives values it
	// can run (the queue constructors panic on a bad capacity).
	switch {
	case cfg.Threads < 0:
		return nil, fmt.Errorf("pe: negative thread count %d", cfg.Threads)
	case cfg.Elastic && cfg.Model != Dynamic:
		return nil, fmt.Errorf("pe: elasticity requires the dynamic model, got %v", cfg.Model)
	case cfg.QueueCap < 1 || cfg.QueueCap&(cfg.QueueCap-1) != 0:
		return nil, fmt.Errorf("pe: QueueCap %d is not a positive power of two", cfg.QueueCap)
	case cfg.ShutdownTimeout < 0:
		return nil, fmt.Errorf("pe: negative ShutdownTimeout %v", cfg.ShutdownTimeout)
	}
	pe := &PE{
		g:            g,
		cfg:          cfg,
		stopSources:  make(chan struct{}),
		sourceExited: make([]atomic.Bool, len(g.SourceNodes)),
		adaptStop:    make(chan struct{}),
	}
	// The manual and dedicated models charge the core's meters per
	// source thread and per port thread.
	opts := exec.Options{
		Shards:          len(g.Ports) + len(g.SourceNodes),
		QuarantineAfter: cfg.QuarantineAfter,
		Fault:           cfg.Fault,
		Latency:         cfg.Latency,
	}
	switch cfg.Model {
	case Manual:
		pe.core = exec.New(g, opts)
		pe.runner = newManualRunner(g, pe.core, cfg.Latency != nil)
	case Dedicated:
		pe.core = exec.New(g, opts)
		pe.runner = newDedicatedRunner(g, pe.core, cfg.QueueCap, cfg.Fault, cfg.Latency != nil)
	case Dynamic:
		d := &dynamicRunner{s: sched.New(g, cfg.schedConfig()), g: g, initial: cfg.Threads}
		pe.core, pe.runner = d.s.Core, d
	default:
		return nil, fmt.Errorf("pe: unknown threading model %v", cfg.Model)
	}
	pe.level.Store(int64(pe.initialLevel()))
	return pe, nil
}

// withDefaults fills in the defaults; the scheduler settings take the
// scheduler's own.
func (cfg Config) withDefaults() Config {
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.AdaptPeriod == 0 {
		cfg.AdaptPeriod = 10 * time.Second
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = sched.DefaultMaxThreads()
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = sched.DefaultQueueCap
	}
	if cfg.ShutdownTimeout == 0 {
		cfg.ShutdownTimeout = sched.DefaultShutdownTimeout
	}
	return cfg
}

// schedConfig is the dynamic scheduler's configuration, built from the
// resolved cfg. The thread table is MaxThreads raised to Threads.
func (cfg Config) schedConfig() sched.Config {
	return sched.Config{
		QueueCap:         cfg.QueueCap,
		MaxThreads:       max(cfg.MaxThreads, cfg.Threads),
		Fault:            cfg.Fault,
		QuarantineAfter:  cfg.QuarantineAfter,
		ShutdownTimeout:  cfg.ShutdownTimeout,
		WatchdogInterval: cfg.WatchdogInterval,
		StallThreshold:   cfg.StallThreshold,
		Tracer:           cfg.Tracer,
		Latency:          cfg.Latency,
		GlobalFreeList:   cfg.GlobalFreeList,
	}
}

func (pe *PE) initialLevel() int {
	switch pe.cfg.Model {
	case Manual:
		return 0 // no scheduler threads; sources only
	case Dedicated:
		return len(pe.g.Ports)
	default:
		return pe.cfg.Threads
	}
}

// Start launches the execution threads, the source operator threads and,
// when configured, the adaptation loop.
func (pe *PE) Start() error {
	if pe.started.Swap(true) {
		return fmt.Errorf("pe: already started")
	}
	if err := pe.runner.start(); err != nil {
		return err
	}
	// Hand the shutdown deadline to sources that drain buffered work on
	// stop (the ingest front end flushes admitted tuples): their flush
	// must fit inside the same budget Stop waits for them, or Stop would
	// cut it short.
	for _, n := range pe.g.SourceNodes {
		if s, ok := n.Op.(interface{ SetDrainDeadline(time.Duration) }); ok {
			s.SetDrainDeadline(pe.cfg.ShutdownTimeout)
		}
	}
	for i, n := range pe.g.SourceNodes {
		pe.sourcesWG.Add(1)
		go func(i int, n *graph.Node) {
			defer pe.sourcesWG.Done()
			n.Op.(graph.Source).Run(pe.runner.sourceSubmitter(i), pe.stopSources)
			pe.runner.sourceDone(i)
			pe.sourceExited[i].Store(true)
		}(i, n)
	}
	if pe.cfg.Elastic {
		pe.adaptWG.Add(1)
		go pe.adaptLoop()
	}
	return nil
}

// adaptLoop is the elasticity driver: every AdaptPeriod it measures the
// PE-wide throughput, verifies that last period's thread actions took
// effect, and applies the controller's decision (the product's policy;
// see internal/elastic).
func (pe *PE) adaptLoop() {
	defer pe.adaptWG.Done()
	dyn := pe.runner.(*dynamicRunner)
	ctl, err := elastic.New(elastic.Config{
		MinLevel:      dyn.s.MinLevel(),
		MaxLevel:      dyn.s.MaxLevel(),
		CPUAcceptable: cpuutil.NewGate(pe.cfg.CPUUsage, 0).Acceptable,
	})
	if err != nil {
		panic(fmt.Sprintf("pe: elastic config invalid: %v", err)) // unreachable: inputs validated in New
	}
	// Move to the controller's starting level immediately.
	pe.applyLevel(dyn, ctl.Level())
	lt := NewLevelTrace(pe.cfg.Tracer)
	lt.Observe(ctl.Level(), 0)

	start := time.Now()
	lastCount := pe.core.Executed()
	lastAt := start
	ticker := time.NewTicker(pe.cfg.AdaptPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-pe.adaptStop:
			return
		case <-pe.core.Done():
			return
		case now := <-ticker.C:
			count := pe.core.Executed()
			dt := now.Sub(lastAt).Seconds()
			if dt <= 0 {
				continue
			}
			thput := float64(count-lastCount) / dt
			lastCount, lastAt = count, now
			if !dyn.s.SuspensionsEffective() {
				ctl.ActionsDidNotStick()
			}
			level := ctl.Update(thput)
			pe.applyLevel(dyn, level)
			lt.Observe(level, thput)
			if pe.cfg.Trace != nil {
				pe.cfg.Trace(Sample{
					Elapsed:    now.Sub(start),
					Throughput: thput,
					Level:      level,
					Rule:       ctl.LastRule().String(),
				})
			}
		}
	}
}

func (pe *PE) applyLevel(dyn *dynamicRunner, level int) {
	got := dyn.s.SetLevel(level)
	pe.level.Store(int64(got))
}

// TraceRings returns how many tracer rings a PE built from cfg needs:
// one per scheduler thread slot, one per source thread, and one for the
// elasticity controller (the last ring). Build the tracer with
// trace.New(pe.TraceRings(cfg, g), 0) and pass it in cfg.Tracer.
func TraceRings(cfg Config, g *graph.Graph) int {
	return sched.TraceRings(cfg.withDefaults().schedConfig(), g)
}

// LevelTrace emits one KindElastic trace event per elasticity level
// change on the tracer's controller ring (the last ring, per the
// TraceRings convention). It deduplicates: an Update that keeps the
// level does not emit. The adaptation loop owns it; like every ring
// writer it must be used from a single goroutine.
type LevelTrace struct {
	tr   *trace.Tracer
	ring int
	last int
}

// NewLevelTrace returns a LevelTrace writing to tr's controller ring.
// A nil tracer yields a LevelTrace that swallows observations.
func NewLevelTrace(tr *trace.Tracer) *LevelTrace {
	lt := &LevelTrace{tr: tr, last: -1}
	if tr != nil {
		lt.ring = tr.Rings() - 1
	}
	return lt
}

// Observe records the level chosen for the next period and the
// throughput observation that drove the decision, emitting exactly one
// trace event when — and only when — the level changed. The throughput
// is packed into the event's low word, saturating at 2^32-1 tuples/s.
func (lt *LevelTrace) Observe(level int, thput float64) {
	if level == lt.last {
		return
	}
	lt.last = level
	if !lt.tr.On() {
		return
	}
	tp := uint64(0)
	if thput > 0 {
		tp = uint64(thput)
		if tp > 1<<32-1 {
			tp = 1<<32 - 1
		}
	}
	lt.tr.Emit(lt.ring, trace.KindElastic, trace.PackPair(int32(level), uint32(tp)))
}

// Level returns the current thread level (0 under the manual model).
func (pe *PE) Level() int { return int(pe.level.Load()) }

// Model returns the PE's threading model.
func (pe *PE) Model() Model { return pe.cfg.Model }

// Executed returns tuples processed across all operators since Start.
func (pe *PE) Executed() uint64 { return pe.core.Executed() }

// OperatorCounts returns per-operator execution counts keyed by operator
// name.
func (pe *PE) OperatorCounts() map[string]uint64 { return pe.core.OperatorCounts() }

// FlowEdges returns the static flow edges — one per input-port queue,
// with producer/consumer operator names and the queue capacity — for
// the observability layer (dynamic model only; nil otherwise).
func (pe *PE) FlowEdges() []sched.Edge {
	if d, ok := pe.runner.(*dynamicRunner); ok {
		return d.s.Edges()
	}
	return nil
}

// NumNodes returns the number of operator nodes in the graph.
func (pe *PE) NumNodes() int { return len(pe.g.Nodes) }

// SampleFlow fills the per-edge flow meters in one pass (see
// sched.Scheduler.SampleFlow); each slice must be len(FlowEdges())
// long, and a nil slice skips that meter. Reports false under models
// without a scheduler, leaving the slices untouched.
func (pe *PE) SampleFlow(depth []int, resched, blockedNs []uint64) bool {
	d, ok := pe.runner.(*dynamicRunner)
	if !ok {
		return false
	}
	d.s.SampleFlow(depth, resched, blockedNs)
	return true
}

// NodeExecuted fills per-node cumulative execution counts; out must be
// NumNodes() long. It reports true under every threading model.
func (pe *PE) NodeExecuted(out []uint64) bool {
	pe.core.NodeExecuted(out)
	return true
}

// QuarantinedNode reports whether the execution core has quarantined
// the node.
func (pe *PE) QuarantinedNode(nodeID int) bool { return pe.core.Quarantined(nodeID) }

// SinkDelivered returns tuples delivered to sink operators since Start.
func (pe *PE) SinkDelivered() uint64 { return pe.core.SinkDelivered() }

// Backlog returns the total tuple occupancy across the runner's input
// queues (0 under the queueless manual model). Racy by design: it is an
// overload signal for admission control, not an accounting value.
func (pe *PE) Backlog() int { return pe.runner.backlog() }

// SchedStats is the dynamic scheduler's single-pass meter snapshot
// (see sched.Stats).
type SchedStats = sched.Stats

// SchedStats returns the dynamic scheduler's slow-path meters (zero
// under the manual and dedicated models, which have no scheduler) — the
// one code path every presenter (the streamsim panel, the debug
// endpoint) goes through.
func (pe *PE) SchedStats() SchedStats {
	d, ok := pe.runner.(*dynamicRunner)
	if !ok {
		return SchedStats{}
	}
	return d.s.Stats()
}

// FaultStats snapshots the fault-containment meters.
func (pe *PE) FaultStats() metrics.FaultsSnapshot { return pe.core.Faults() }

// LastFault describes the most recent contained fault ("" if none).
func (pe *PE) LastFault() string { return pe.core.LastFault() }

// Err returns the first error recorded while stopping the PE (for
// example a shutdown-deadline expiry naming a stuck scheduler thread).
func (pe *PE) Err() error {
	pe.errMu.Lock()
	defer pe.errMu.Unlock()
	return pe.err
}

func (pe *PE) setErr(err error) {
	pe.errMu.Lock()
	defer pe.errMu.Unlock()
	if pe.err == nil {
		pe.err = err
	}
}

// Done is closed once every input port has processed its final
// punctuation (bounded sources only).
func (pe *PE) Done() <-chan struct{} { return pe.core.Done() }

// Wait blocks until the graph drains, then releases all threads. Use
// with bounded sources.
func (pe *PE) Wait() {
	<-pe.core.Done()
	pe.finish()
	pe.sourcesWG.Wait()
}

// WaitTimeout is Wait with a deadline on the drain itself: if the graph
// has not drained within d — a wedged operator, a stalled thread — it
// returns an error carrying the last contained fault and a goroutine
// dump instead of blocking forever. On a successful drain it returns any
// shutdown error (see Err).
func (pe *PE) WaitTimeout(d time.Duration) error {
	select {
	case <-pe.core.Done():
	case <-time.After(d):
		last := ""
		if lf := pe.core.LastFault(); lf != "" {
			last = " (last fault: " + lf + ")"
		}
		return fmt.Errorf("pe: drain deadline %v expired%s\n%s", d, last, fault.GoroutineDump(64<<10))
	}
	pe.finish()
	pe.sourcesWG.Wait()
	return pe.Err()
}

// Stop asks sources to stop, waits for them to return and for the graph
// to drain, and releases all threads. Safe to call once, after Start.
//
// The two waits share one ShutdownTimeout deadline, so neither a source
// blocked in self-help behind a wedged operator nor one wedged in
// operator code itself can hang Stop. On expiry Err names the sources
// that have not returned (or reports the undrained graph), and Stop goes
// on to the runner's shutdown, whose stop flags release a source blocked
// in self-help; a source wedged in operator code is left behind, like a
// wedged scheduler thread.
func (pe *PE) Stop() {
	if pe.stopped.Swap(true) {
		return
	}
	close(pe.stopSources)
	deadline := time.NewTimer(pe.cfg.ShutdownTimeout)
	defer deadline.Stop()
	sourcesDone := make(chan struct{})
	go func() {
		pe.sourcesWG.Wait()
		close(sourcesDone)
	}()
	select {
	case <-sourcesDone:
		select {
		case <-pe.core.Done():
		case <-deadline.C:
			pe.setErr(pe.deadlineErr("the graph has not drained"))
		}
	case <-deadline.C:
		var stuck []string
		for i, n := range pe.g.SourceNodes {
			if !pe.sourceExited[i].Load() {
				stuck = append(stuck, fmt.Sprintf("%d (%s)", i, n.Op.Name()))
			}
		}
		pe.setErr(pe.deadlineErr(fmt.Sprintf("sources %v have not stopped", stuck)))
	}
	pe.finish()
}

// deadlineErr is Stop's deadline error: what is stuck, the last
// contained fault, and a goroutine dump.
func (pe *PE) deadlineErr(what string) error {
	last := ""
	if lf := pe.core.LastFault(); lf != "" {
		last = " (last fault: " + lf + ")"
	}
	return fmt.Errorf("pe: shutdown deadline %v exceeded; %s%s\n%s",
		pe.cfg.ShutdownTimeout, what, last, fault.GoroutineDump(64<<10))
}

// finish stops the adaptation loop and the runner. It does not wait for
// source threads: after a drain every source has emitted its final
// punctuation and is returning (Wait and WaitTimeout then wait for it),
// and Stop has already waited for them as long as its deadline allows.
func (pe *PE) finish() {
	if pe.cfg.Elastic {
		select {
		case <-pe.adaptStop:
		default:
			close(pe.adaptStop)
		}
		pe.adaptWG.Wait()
	}
	if err := pe.runner.shutdown(); err != nil {
		pe.setErr(err)
	}
}

// dynamicRunner adapts sched.Scheduler to the runner interface.
type dynamicRunner struct {
	s       *sched.Scheduler
	g       *graph.Graph
	initial int
}

func (d *dynamicRunner) start() error {
	d.s.Start(d.initial)
	return nil
}

func (d *dynamicRunner) sourceSubmitter(i int) graph.Submitter {
	return d.s.SourceSubmitter(d.g.SourceNodes[i], i)
}

func (d *dynamicRunner) sourceDone(i int) { d.s.SourceDone(d.g.SourceNodes[i], i) }
func (d *dynamicRunner) backlog() int     { return d.s.Backlog() }
func (d *dynamicRunner) shutdown() error  { return d.s.Shutdown() }

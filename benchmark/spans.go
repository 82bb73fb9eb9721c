package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streams/internal/graph"
	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/obs"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/trace"
	"streams/internal/tuple"
)

// The traced pass. Everything here observes the system from outside:
// the public tracer and latency histogram are switched on, an
// obs.Collector and two pollers sample public snapshots, and a wrapping
// source times the calls at the submit seam. None of it runs in the
// untraced pass.

const (
	traceRings    = 8 // sched threads, sources, controller; then ingest, obs
	traceRingCap  = 1 << 16
	ingestRingIdx = traceRings - 2
	obsRingIdx    = traceRings - 1
	fastPoll      = 10 * time.Millisecond
	obsPeriod     = 100 * time.Millisecond
)

// span is one recorded interval of the waterfall, in time since the
// run's origin (a closed trial's Start). Conn is the connection the
// tuple came in on (the trial number in a closed run); with Tuple it
// identifies the tuple all spans of one waterfall share.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     string
	Conn       int
	Tuple      uint64
}

// traceKit is the traced pass's instrumentation for one run. A closed
// run attaches it to several trials in turn; the counters accumulate.
type traceKit struct {
	// per attachment
	g      *graph.Graph
	tracer *trace.Tracer
	hist   *metrics.Histogram
	seam   *spanSubmitter
	col    *obs.Collector
	srv    *ingest.Server
	stop   chan struct{}
	wg     sync.WaitGroup
	t0     time.Time
	// trackOrigin and trackTotals size the next seam's sample tables.
	trackOrigin time.Time
	trackTotals []uint64
	inWin       atomic.Bool // the pollers sample only inside the measured window

	// outDir and name, when set, say where the scheduler tracer's own
	// trace_event export of the last attachment goes.
	outDir, name string
	exported     string
	exportErr    error

	// accumulated over the run
	acc    layerAcc
	spans  []span // closed workloads: one trace_event thread per trial
	trials int
}

// layerAcc holds the raw counter sums the per-layer metrics divide.
type layerAcc struct {
	inputs      uint64
	wall        time.Duration
	sched       pe.SchedStats
	executed    uint64
	vmExecuted  uint64 // executions of operators that carry a program
	resched     uint64
	blockedNs   uint64
	depthSum    float64 // scheduler queue occupancy, summed over samples
	depthN      int
	skew        []float64 // per trial: max/mean of replica executions
	submitCalls uint64
	submitBusy  time.Duration
	events      float64 // tracer events, extrapolated over wrapped rings
	holdSum     time.Duration
	holds       int
	parked      time.Duration
	fuseSegs    int64
	fuses       int64
	heapPeak    uint64
	obsSample   []float64 // ms per Collector.SampleNow
	qDepthSum   float64   // ingest tenant-queue occupancy
	qDepthMax   int
	qDepthN     int
	transit     []float64 // µs, submit-seam exit to sink, span-sampled tuples
}

func newTraceKit(outDir, name string) *traceKit { return &traceKit{outDir: outDir, name: name} }

// attach switches the public instruments on in a PE config and wraps
// the graph's sources (a closed workload's graph arrives unwrapped; an
// open-loop rig has wrapped its server already).
func (k *traceKit) attach(cfg *pe.Config, g *graph.Graph) {
	if k.tracer == nil {
		k.newTracer()
	}
	k.g = g
	k.hist = metrics.NewHistogram(4)
	cfg.Tracer, cfg.Latency = k.tracer, k.hist
	for _, n := range g.SourceNodes {
		if _, ok := n.Op.(*spanSource); !ok {
			n.Op = k.wrapSource(n.Op.(graph.Source))
		}
	}
}

// newTracer creates the attachment's tracer; the ingest server needs it
// at construction, before the graph exists.
func (k *traceKit) newTracer() *trace.Tracer {
	k.tracer = trace.New(traceRings, traceRingCap)
	return k.tracer
}

// track asks the next wrapped source's seam to keep the instants of the
// span-sampled tuples: perConn[c] tuples on connection c, timed against
// origin. It must be called before the source is wrapped, so that the
// tables exist before the PE starts its threads.
func (k *traceKit) track(origin time.Time, perConn []uint64) {
	k.trackOrigin, k.trackTotals = origin, perConn
}

func (k *traceKit) wrapSource(inner graph.Source) graph.Source {
	k.seam = &spanSubmitter{}
	if k.trackTotals != nil {
		k.seam.track(k.trackOrigin, k.trackTotals)
	}
	return &spanSource{inner: inner, sub: k.seam}
}

// begin starts the pollers. srv is nil for closed workloads.
func (k *traceKit) begin(p *pe.PE, srv *ingest.Server) {
	k.srv = srv
	k.t0 = time.Now()
	k.tracer.Enable()
	k.col = obs.New(obs.Options{PE: p, Ingest: srv, Latency: k.hist, Tracer: k.tracer, Ring: obsRingIdx, Period: obsPeriod})
	k.stop = make(chan struct{})
	k.inWin.Store(srv == nil) // closed trials are measured from Start
	k.wg.Add(1)
	go k.poll()
}

func (k *traceKit) windowStart() { k.inWin.Store(true) }
func (k *traceKit) windowEnd()   { k.inWin.Store(false) }

// poll is the sampler goroutine: heap in use and the ingest tenant
// queues every 10 ms, one obs.Collector sample every 100 ms.
func (k *traceKit) poll() {
	defer k.wg.Done()
	tick := time.NewTicker(fastPoll)
	defer tick.Stop()
	heap := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	for n := 0; ; n++ {
		select {
		case <-k.stop:
			return
		case <-tick.C:
		}
		if !k.inWin.Load() {
			continue
		}
		rtmetrics.Read(heap)
		if h := heap[0].Value.Uint64() + heap[1].Value.Uint64(); h > k.acc.heapPeak {
			k.acc.heapPeak = h
		}
		if k.srv != nil {
			d := 0
			for _, t := range k.srv.Snapshot().Tenants {
				d += t.Depth
			}
			k.acc.qDepthSum += float64(d)
			k.acc.qDepthN++
			if d > k.acc.qDepthMax {
				k.acc.qDepthMax = d
			}
		}
		if n%int(obsPeriod/fastPoll) == 0 {
			t := time.Now()
			s := k.col.SampleNow()
			k.acc.obsSample = append(k.acc.obsSample, time.Since(t).Seconds()*1e3)
			for _, d := range s.Depth {
				k.acc.depthSum += float64(d)
			}
			k.acc.depthN++
		}
	}
}

// end stops the pollers and folds the PE's public counters and the
// tracer's retained events into the accumulators. inputs is the
// trial's input tuple count (0 for an open-loop run, which sets
// acc.inputs itself).
func (k *traceKit) end(p *pe.PE, inputs uint64) {
	close(k.stop)
	k.wg.Wait()
	k.tracer.Disable()
	a := &k.acc
	a.inputs += inputs
	a.wall += time.Since(k.t0)

	st := p.SchedStats()
	addSched(&a.sched, st)
	a.executed += p.Executed()
	exec := make([]uint64, p.NumNodes())
	if p.NodeExecuted(exec) {
		a.vmExecuted += k.vmExecutions(exec)
		if s := k.partitionSkew(exec); s > 0 {
			a.skew = append(a.skew, s)
		}
	}
	edges := len(p.FlowEdges())
	resched, blocked := make([]uint64, edges), make([]uint64, edges)
	if p.SampleFlow(nil, resched, blocked) {
		for i := range resched {
			a.resched += resched[i]
			a.blockedNs += blocked[i]
		}
	}
	if k.seam != nil {
		a.submitCalls += k.seam.calls
		a.submitBusy += k.seam.busy
	}
	k.foldEvents(k.tracer.Snapshot())
	if k.outDir != "" {
		k.exported, k.exportErr = k.export()
	}
	k.tracer = nil
}

// export writes the tracer's retained events as Chrome trace_event JSON.
func (k *traceKit) export() (string, error) {
	if err := os.MkdirAll(k.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(k.outDir, k.name+".sched.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := k.tracer.Export(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// foldTransit joins the seam's exit instants with a closed job's sink
// instants (both since the trial's Start) for the span-sampled tuples.
func (k *traceKit) foldTransit(sinkAt []time.Duration) {
	if sinkAt == nil || k.seam == nil || k.seam.outAt == nil {
		return
	}
	k.trials++
	for i, out := range k.seam.outAt[0] {
		if i >= len(sinkAt) || out == 0 || sinkAt[i] == 0 {
			continue
		}
		in, sink, id := k.seam.in[0][i], sinkAt[i], uint64(i)*spanEvery
		k.acc.transit = append(k.acc.transit, float64(sink-out)/1e3)
		k.spans = append(k.spans,
			span{"tuple", in, sink, "", k.trials, id},
			span{"sched.submit", in, out, "tuple", k.trials, id},
			span{"sched.transit", out, sink, "tuple", k.trials, id})
	}
}

// addSched accumulates the counters the layer metrics use.
func addSched(dst *pe.SchedStats, s pe.SchedStats) {
	dst.FindFailures += s.FindFailures
	c, d := &dst.Contention, s.Contention
	c.PushFail += d.PushFail
	c.PopFail += d.PopFail
	c.Steal += d.Steal
	c.StealMiss += d.StealMiss
	ch, dh := &dst.Chain, s.Chain
	ch.Tuples += dh.Tuples
	ch.DepthStops += dh.DepthStops
	ch.BudgetStops += dh.BudgetStops
	ch.LockMisses += dh.LockMisses
	ch.Occupied += dh.Occupied
	v, dv := &dst.VM, s.VM
	v.FusedTuples += dv.FusedTuples
	v.Fallbacks += dv.Fallbacks
	v.VecBatches += dv.VecBatches
	v.VecRows += dv.VecRows
	v.VecAborts += dv.VecAborts
}

// vmExecutions sums the executions of operators that carry a bytecode
// program.
func (k *traceKit) vmExecutions(exec []uint64) uint64 {
	var n uint64
	for _, node := range k.g.Nodes {
		if programOf(node.Op) != nil {
			n += exec[node.ID]
		}
	}
	return n
}

// partitionSkew is max/mean of the executions of the replicas behind a
// round-robin splitter (the largest over the graph's splitters); 0
// when the graph has none.
func (k *traceKit) partitionSkew(exec []uint64) float64 {
	worst := 0.0
	for _, node := range k.g.Nodes {
		if _, ok := node.Op.(*ops.RoundRobinSplit); !ok {
			continue
		}
		var sum, most float64
		for _, dests := range node.Outs {
			for _, pid := range dests {
				e := float64(exec[k.g.Ports[pid].Node.ID])
				sum += e
				most = max(most, e)
			}
		}
		if sum > 0 {
			worst = max(worst, most*float64(len(node.Outs))/sum)
		}
	}
	return worst
}

// foldEvents reduces the tracer's retained events. A ring that wrapped
// retains only its newest events, so counts are extrapolated from each
// ring's retained time span to the attachment's wall time.
func (k *traceKit) foldEvents(events []trace.Event) {
	a := &k.acc
	wall := time.Since(k.t0)
	type ringState struct {
		first, last time.Duration
		n           int
		acquire     time.Duration
		park        time.Duration
		held        bool
		parked      bool
	}
	rings := map[int]*ringState{}
	for _, e := range events {
		r := rings[e.Ring]
		if r == nil {
			r = &ringState{first: e.TS}
			rings[e.Ring] = r
		}
		r.last = e.TS
		r.n++
		switch e.Kind {
		case trace.KindAcquire:
			r.acquire, r.held = e.TS, true
		case trace.KindRelease:
			if r.held {
				a.holdSum += e.TS - r.acquire
				a.holds++
				r.held = false
			}
		case trace.KindPark:
			r.park, r.parked = e.TS, true
		case trace.KindUnpark:
			if r.parked {
				a.parked += e.TS - r.park
				r.parked = false
			}
		case trace.KindVMFuse:
			segs, _ := trace.UnpackPair(e.Arg)
			a.fuseSegs += int64(segs)
			a.fuses++
		}
	}
	for _, r := range rings {
		scale := 1.0
		if r.n >= traceRingCap && r.last > r.first {
			scale = float64(wall) / float64(r.last-r.first)
		}
		a.events += float64(r.n) * scale
	}
}

// spanSource wraps a graph.Source so that the submitter its Run
// receives is the timing one. It forwards SetDrainDeadline, which the
// PE discovers by interface assertion.
type spanSource struct {
	inner graph.Source
	sub   *spanSubmitter
}

func (s *spanSource) Name() string                              { return s.inner.Name() }
func (s *spanSource) Process(graph.Submitter, tuple.Tuple, int) {}
func (s *spanSource) Run(out graph.Submitter, stop <-chan struct{}) {
	s.sub.out = out
	s.inner.Run(s.sub, stop)
}

func (s *spanSource) SetDrainDeadline(d time.Duration) {
	if dd, ok := s.inner.(interface{ SetDrainDeadline(time.Duration) }); ok {
		dd.SetDrainDeadline(d)
	}
}

// spanSubmitter times every Submit at the source seam (the time
// includes any back-pressure wait inside the scheduler) and keeps the
// entry and exit instants of the span-sampled tuples. Only the source
// thread calls it.
type spanSubmitter struct {
	out    graph.Submitter
	origin time.Time
	calls  uint64
	busy   time.Duration
	// in/out[conn][k] are the seam instants of tuple k*spanEvery; nil
	// when the workload's tuples carry no counter (the SPL workloads).
	in, outAt [][]time.Duration
}

func (s *spanSubmitter) Submit(t tuple.Tuple, port int) {
	t0 := time.Now()
	s.out.Submit(t, port)
	t1 := time.Now()
	s.calls++
	s.busy += t1.Sub(t0)
	if s.in == nil || t.Kind != tuple.Data {
		return
	}
	if i := t.Words[0]; i%spanEvery == 0 {
		if c := int(t.Words[2]); c < len(s.in) && int(i/spanEvery) < len(s.in[c]) {
			s.in[c][i/spanEvery] = t0.Sub(s.origin)
			s.outAt[c][i/spanEvery] = t1.Sub(s.origin)
		}
	}
}

// track sizes the seam's sample tables: conns connections of up to
// perConn tuples each, timed against origin.
func (s *spanSubmitter) track(origin time.Time, perConn []uint64) {
	s.origin = origin
	s.in, s.outAt = make([][]time.Duration, len(perConn)), make([][]time.Duration, len(perConn))
	for c, n := range perConn {
		s.in[c] = make([]time.Duration, n/spanEvery+1)
		s.outAt[c] = make([]time.Duration, n/spanEvery+1)
	}
}

// files reports where the last attachment's scheduler trace went and
// writes spans (if any) next to it; the result is the report's notes.
func (k *traceKit) files(spans []span) ([]string, error) {
	if k.exportErr != nil {
		return nil, k.exportErr
	}
	notes := []string{"scheduler trace: " + k.exported}
	if len(spans) == 0 {
		return notes, nil
	}
	path, err := writeSpans(k.outDir, k.name, spans)
	if err != nil {
		return nil, err
	}
	return append(notes, "spans: "+path), nil
}

// writeSpans writes the recorded spans as Chrome trace_event JSON.
func writeSpans(dir, workload string, spans []span) (string, error) {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	evs := make([]ev, len(spans))
	for i, s := range spans {
		evs[i] = ev{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Conn,
			Args: map[string]any{"tuple": s.Tuple, "parent": s.Parent}}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

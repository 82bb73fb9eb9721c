package main

import (
	"fmt"
	"runtime"
	"time"

	"streams/internal/graph"
	"streams/internal/ingest"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// An open-loop workload offers load over real loopback TCP on a fixed
// schedule, whatever the system does with it: one warm-up window, then
// one measured window of -seconds. Latency runs from each tuple's due
// time to its delivery at the sink.

// connSpec is one client connection of an open-loop workload.
type connSpec struct {
	tenant   ingest.TenantConfig
	rate     float64 // offered tuples/s
	lossless bool    // every sent tuple is owed to the sink
}

type ingestWorkload struct {
	seed  uint64
	conns []connSpec
	// tagWord, when set, makes admission write the tenant ID into that
	// payload word (the overload workload attributes classes with it).
	tagWord int
}

func pacedWorkload(seed int64) *ingestWorkload {
	unmetered := func(name string) ingest.TenantConfig {
		return ingest.TenantConfig{Name: name, Policy: ingest.Block, QueueCap: 4096}
	}
	return &ingestWorkload{seed: uint64(seed), conns: []connSpec{
		{tenant: unmetered("a"), rate: 100_000, lossless: true},
		{tenant: unmetered("b"), rate: 100_000, lossless: true},
	}}
}

// Contracts of the overload workload. Gold is shaped (Block), not
// policed: a catch-up burst after a stall of the generator or of a
// reader then costs gold latency, which the run measures, and never a
// gold tuple, which would fail the run on the host's scheduling luck.
// Its bucket is deep (82 ms of contract) so that in normal operation
// gold passes through and the shaper does not queue at 90% utilisation.
const (
	contractRate = 50_000
	goldOffered  = 45_000
	bronzeOffer  = 155_000
)

func overloadWorkload(seed int64) *ingestWorkload {
	return &ingestWorkload{seed: uint64(seed), tagWord: 7, conns: []connSpec{
		{tenant: ingest.TenantConfig{Name: "gold", Rate: contractRate, Burst: 8192, QueueCap: 4096, Policy: ingest.Block, Guaranteed: true},
			rate: goldOffered, lossless: true},
		{tenant: ingest.TenantConfig{Name: "bronze", Rate: contractRate, Burst: contractRate / 10, Policy: ingest.ShedOldest},
			rate: bronzeOffer},
	}}
}

// pipeline is the graph behind the front door: four VM workers in one
// chain, which the scheduler fuses.
var pipeline = ops.Topology{Width: 1, Depth: 4, Cost: 16, VM: true}

// rig is one running instance of an open-loop workload: server, PE,
// dialled clients.
type rig struct {
	srv     *ingest.Server
	pe      *pe.PE
	sink    *ops.Sink
	clients []*ingest.Client
}

// setup builds the server, graph and PE, opens the front door, starts
// the PE and, when dial is set, dials every client: everything up to the
// point where the first tuple can be sent. (The measured run leaves the
// dialling to the generator process.) kit is nil in the untraced pass.
func (w *ingestWorkload) setup(onTuple func(tuple.Tuple), dial bool, kit *traceKit) (*rig, error) {
	cfg := ingest.Config{TagWord: w.tagWord}
	for _, c := range w.conns {
		cfg.Tenants = append(cfg.Tenants, c.tenant)
	}
	if kit != nil {
		cfg.Tracer, cfg.TraceRing = kit.newTracer(), ingestRingIdx
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	var src graph.Source = srv
	if kit != nil {
		src = kit.wrapSource(srv)
	}
	g, snk, err := pipeline.BuildWithSource(src)
	if err != nil {
		return nil, err
	}
	snk.OnTuple = onTuple
	pcfg := peConfig(pe.Dynamic)
	if kit != nil {
		kit.attach(&pcfg, g)
	}
	p, err := pe.New(g, pcfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if err := p.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	r := &rig{srv: srv, pe: p, sink: snk}
	if !dial {
		return r, nil
	}
	for _, c := range w.conns {
		cl, err := ingest.Dial(srv.Addr(), c.tenant.Name)
		if err == nil {
			err = cl.Flush() // the preamble
		}
		if err != nil {
			r.teardown()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// teardown ends the clients' streams, waits until the server has read
// every frame they sent, and stops the PE. It returns how long Stop
// took.
func (r *rig) teardown() (time.Duration, error) {
	for _, c := range r.clients {
		// Close's error is the socket's; the frames were flushed by the
		// generator and the server-side check below is what matters.
		_ = c.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.srv.Snapshot().Open > 0 {
		if time.Now().After(deadline) {
			r.pe.Stop()
			return 0, fmt.Errorf("server still had open connections 10 s after the clients closed")
		}
		time.Sleep(time.Millisecond)
	}
	t := time.Now()
	r.pe.Stop()
	return time.Since(t), r.pe.Err()
}

// sinkState is what the sink-side hook of an open-loop run keeps.
type sinkState struct {
	origin int64 // UnixNano; the clock is shared with the generator process
	fifo   []fifoCheck
	class  []int             // per connection: index into lat
	lat    []*latRecorder    // per class: 0 the tuples owed to the sink, 1 the policed ones
	sinkAt [][]time.Duration // per connection: sink instant of tuple k*spanEvery
	wrong  uint64            // tuples whose payload does not match the schedule
	sched  []*generator      // per connection: the schedule the tuples must match
}

// onTuple is the Sink.OnTuple hook: the only code the benchmark places
// in the untraced data path. The sink has one input port, so calls are
// serialized by the port's consumer lock.
func (s *sinkState) onTuple(t tuple.Tuple) {
	now := since(s.origin)
	c := int(t.Words[2])
	if c < 0 || c >= len(s.fifo) {
		s.wrong++
		return
	}
	i := t.Words[0]
	due := time.Duration(t.Words[1])
	if g := s.sched[c]; t.Words[3] != splitmix64(g.seed^i) || due != g.due(i) {
		s.wrong++
	}
	s.fifo[c].see(i)
	s.lat[s.class[c]].record(now, now-due)
	if i%spanEvery == 0 && int(i/spanEvery) < len(s.sinkAt[c]) {
		s.sinkAt[c][i/spanEvery] = now
	}
}

// openResult is what one open-loop run measured.
type openResult struct {
	setups   []time.Duration
	window   time.Duration
	inWindow uint64 // tuples due inside the measured window
	sinkIn   uint64 // tuples delivered inside the measured window
	cost     cost
	lat      []latStats // per class, see sinkState.lat
	drain    time.Duration
	gens     []*generator
	sink     *sinkState
	// dispositions over the whole run, from the server's own counters.
	final ingest.Snapshot
	// attempted / failed in the contract's sense.
	owed, failed uint64
	notes        []string
}

const (
	openWarmup  = 2 * time.Second
	latWindow   = time.Second
	setupProbes = 50
)

// runOpen executes one open-loop run: setup probes, warm-up, measured
// window, teardown, checks.
func runOpen(w *ingestWorkload, measure, warmup time.Duration, probes int, kit *traceKit) (*openResult, error) {
	res := &openResult{window: measure}

	// Set-up time: the median of several complete set-ups. The probes
	// are torn down again; the last set-up is the one the run uses.
	for i := 0; i < probes; i++ {
		t := time.Now()
		r, err := w.setup(nil, true, nil)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		res.setups = append(res.setups, time.Since(t))
		if _, err := r.teardown(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		// Let the torn-down rig's goroutines and sockets finish dying, so
		// that they are not charged to the next probe.
		time.Sleep(time.Millisecond)
	}

	total := warmup + measure
	nWin := int(measure / latWindow)
	st := &sinkState{lat: make([]*latRecorder, 2)}
	classRate := make([]float64, 2)
	for _, spec := range w.conns {
		classRate[spec.class()] += spec.admitRate()
	}
	for k, rate := range classRate {
		st.lat[k] = newLatRecorder(warmup, latWindow, nWin, int(rate*latWindow.Seconds()*1.5)+1024)
	}
	// The schedules start a little after now, so that the generator
	// process is up and connected when the first tuple falls due.
	const lead = 500 * time.Millisecond
	var plan genPlan
	for c, spec := range w.conns {
		interval := time.Duration(1e9 / spec.rate)
		cp := genConnPlan{
			Tenant: spec.tenant.Name, Conn: c, Seed: w.seed ^ uint64(c)<<56, Rate: spec.rate,
			// The seed staggers the connections' schedules inside one
			// send interval.
			First: time.Duration(splitmix64(w.seed+uint64(c)) % uint64(interval)),
			End:   total,
		}
		plan.Conns = append(plan.Conns, cp)
		st.fifo = append(st.fifo, fifoCheck{lossless: spec.lossless})
		st.class = append(st.class, spec.class())
		st.sched = append(st.sched, cp.generator())
		st.sinkAt = append(st.sinkAt, make([]time.Duration, cp.generator().total()/spanEvery+1))
	}
	res.sink = st

	// Everything the sink hook and the submit seam read is in place
	// before the PE starts.
	plan.Origin = time.Now().Add(lead).UnixNano()
	st.origin = plan.Origin
	now := func() time.Duration { return since(plan.Origin) }
	if kit != nil {
		totals := make([]uint64, len(plan.Conns))
		for c, cp := range plan.Conns {
			totals[c] = cp.generator().total()
		}
		kit.track(time.Unix(0, plan.Origin), totals)
	}

	runtime.GC()
	r, err := w.setup(st.onTuple, false, kit)
	if err != nil {
		return nil, err
	}
	plan.Addr = r.srv.Addr()
	if kit != nil {
		kit.begin(r.pe, r.srv)
	}
	gen, err := startGenerator(plan)
	if err != nil {
		r.teardown()
		return nil, err
	}

	// The controller reads the process meters at the edges of the
	// measured window and the delivery counters at its middle.
	time.Sleep(warmup - now())
	m0 := readMeter()
	if kit != nil {
		kit.windowStart()
	}
	time.Sleep(warmup + measure/2 - now())
	midOwed, midSink := owedNow(r), r.sink.Count()
	time.Sleep(total - now())
	endOwed, endSink := owedNow(r), r.sink.Count()
	m1 := readMeter()
	res.cost = m1.since(m0)
	if kit != nil {
		kit.windowEnd()
	}

	gens, err := gen.wait(plan)
	if err != nil {
		r.teardown()
		return nil, err
	}
	res.gens = gens
	for c, g := range gens {
		res.notes = append(res.notes, fmt.Sprintf("generator %d: sent %d of %d, late p99 %v max %v", c, g.sent, g.total(), lateP99(gens[c:c+1]), g.lateMax))
	}
	res.drain, err = r.teardown()
	if err != nil {
		return nil, err
	}
	res.final = r.srv.Snapshot()
	if kit != nil {
		kit.end(r.pe, 0)
	}

	for _, g := range gens {
		res.inWindow += g.dueBefore(total) - g.dueBefore(warmup)
	}
	for _, rec := range st.lat {
		res.sinkIn += uint64(rec.count(0, nWin))
		res.lat = append(res.lat, rec.stats())
	}

	// A sink that delivers, over the second half of the window, less
	// than 0.98 of what it was owed over that half is falling behind.
	w.check(res, r.sink.Count())
	if owed, got := endOwed-midOwed, endSink-midSink; float64(got) < 0.98*float64(owed) {
		res.failed = max(res.failed, 1)
		res.notes = append(res.notes, fmt.Sprintf("backlog_growing: sink got %d of %d owed in the second half of the window", got, owed))
	}
	return res, nil
}

// owedNow is how many tuples the sink is owed at this instant: what
// the pump has handed to the runtime. (For a lossless connection that
// is what was sent, give or take the tuples in flight.)
func owedNow(r *rig) uint64 { return r.srv.Snapshot().Totals.Admitted }

// contractTuples is what a metered tenant's contract admits over a run
// of the given length: its rate for that long, plus one bucket of burst.
func contractTuples(t ingest.TenantConfig, run time.Duration) float64 {
	return t.Rate*run.Seconds() + float64(t.Burst)
}

// class is a connection's latency class: 0 when every tuple it sends
// is owed to the sink, 1 when admission polices it.
func (c connSpec) class() int {
	if c.lossless {
		return 0
	}
	return 1
}

// admitRate is the rate at which a connection's tuples can reach the
// sink: its contract when it has one.
func (c connSpec) admitRate() float64 {
	if c.tenant.Rate > 0 {
		return min(c.tenant.Rate, c.rate)
	}
	return c.rate
}

// summary computes the end-to-end metrics of an open-loop run (and
// lat_p99_ms, which the traced pass reports under pe.). The latency is
// that of the owed class: both tenants of ingest_paced, gold on
// ingest_overload.
func (r *openResult) summary() map[string]float64 {
	in := float64(r.inWindow)
	return map[string]float64{
		"setup_s":           medianSeconds(r.setups),
		"tuples_per_s":      float64(r.sinkIn) / r.window.Seconds(),
		"cpu_us_per_ktuple": r.cost.cpu.Seconds() * 1e9 / in,
		"lat_p50_ms":        r.lat[0].p50.Seconds() * 1e3,
		"lat_p95_ms":        r.lat[0].p95.Seconds() * 1e3,
		"lat_p99_ms":        r.lat[0].p99.Seconds() * 1e3,
	}
}

// check applies the conservation and FIFO oracles.
func (w *ingestWorkload) check(res *openResult, sinkCount uint64) {
	var sent, disposed uint64
	st := res.sink
	tot := res.final.Totals
	for c, g := range res.gens {
		sent += g.sent
		f := &st.fifo[c]
		ts := res.final.Tenants[c]
		// A blocking tenant's throttled count is tuples its shaper
		// delayed, which were admitted afterwards; a policed tenant's is
		// tuples dropped.
		disposed += ts.Admitted + ts.Shed
		res.notes = append(res.notes, fmt.Sprintf("tenant %s: sent %d, admitted %d, shed %d, throttled %d", ts.Name, g.sent, ts.Admitted, ts.Shed, ts.Throttled))
		if w.conns[c].tenant.Policy != ingest.Block {
			disposed += ts.Throttled
		}
		if w.conns[c].lossless {
			res.owed += g.sent
			if ts.Shed != 0 {
				res.notes = append(res.notes, fmt.Sprintf("tenant %s had %d tuples shed", ts.Name, ts.Shed))
			}
		} else {
			// A policed connection owes the sink what the pump admitted,
			// and must be admitted at its contract: a bucket that leaks
			// or starves is a wrong result, not a slow one. The band is
			// wider below than above: a reader that stalls for longer
			// than the bucket is deep loses tokens it can never use, and
			// only over-admission can make another number look better.
			res.owed += ts.Admitted
			res.failed += absDiff(f.delivered, ts.Admitted)
			contract := contractTuples(w.conns[c].tenant, g.end)
			if got := float64(ts.Admitted); got < 0.90*contract || got > 1.05*contract {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("tenant %s admitted %d tuples, contract %.0f", ts.Name, ts.Admitted, contract))
			}
		}
		res.failed += f.failures(g.sent)
	}
	res.failed += st.wrong
	// Every sent tuple ends in exactly one disposition.
	if got := disposed + tot.Rejected; got != sent {
		res.failed += absDiff(got, sent)
		res.notes = append(res.notes, fmt.Sprintf("conservation: admitted+shed+throttled+rejected = %d, sent %d", got, sent))
	}
	if got := sinkCount; got != tot.Admitted {
		res.notes = append(res.notes, fmt.Sprintf("sink delivered %d, admitted %d", got, tot.Admitted))
		if absDiff(got, tot.Admitted) > res.failed {
			res.failed = absDiff(got, tot.Admitted)
		}
	}
}

package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"streams/internal/ingest"
	"streams/internal/pe"
	"streams/internal/tuple"
)

// Derivation of the per-layer metrics from the traced pass's raw
// material: public counter sums (C), benchmark-side spans (S) and
// isolated loops (I). A metric a workload does not exercise reads 0.

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the accumulated scheduler counters into the
// sched.*, vm.* and trace.* layer metrics.
func (a *layerAcc) counterMetrics(out map[string]float64) {
	in := float64(a.inputs)
	ktuples := in / 1000
	s := a.sched

	// Executions that bypassed a queue: inline chain links, plus fused
	// runs at the mean run length the tracer's vm-fuse events report.
	fusedExec := 0.0
	if a.fuses > 0 {
		fusedExec = float64(s.VM.FusedTuples) * float64(a.fuseSegs) / float64(a.fuses)
	}
	bypassed := float64(s.Chain.Tuples) + fusedExec
	out["sched.queue_exec_per_tuple"] = ratio(float64(a.executed)-bypassed, in)
	out["sched.chain_frac"] = ratio(bypassed, float64(a.executed))
	stops := s.Chain.DepthStops + s.Chain.BudgetStops + s.Chain.LockMisses + s.Chain.Occupied
	out["sched.chain_stops_per_ktuple"] = ratio(float64(stops), ktuples)
	out["sched.resched_per_ktuple"] = ratio(float64(a.resched), ktuples)
	out["sched.blocked_ns_per_tuple"] = ratio(float64(a.blockedNs), in)
	out["sched.queue_depth_mean"] = ratio(a.depthSum, float64(a.depthN))
	out["sched.find_fail_per_ktuple"] = ratio(float64(s.FindFailures), ktuples)
	// Two scheduler threads share the wall time.
	out["sched.park_frac"] = ratio(float64(a.parked), 2*float64(a.wall))
	out["sched.port_hold_us_mean"] = ratio(float64(a.holdSum)/1e3, float64(a.holds))
	out["sched.steal_per_ktuple"] = ratio(float64(s.Contention.Steal), ktuples)
	out["sched.steal_miss_ratio"] = ratio(float64(s.Contention.StealMiss), float64(s.Contention.Steal+s.Contention.StealMiss))
	out["sched.freelist_fail_per_ktuple"] = ratio(float64(s.Contention.PushFail+s.Contention.PopFail), ktuples)
	out["sched.partition_skew"] = median(a.skew)
	out["sched.submit_ns_per_tuple"] = ratio(float64(a.submitBusy), float64(a.submitCalls))
	out["sched.transit_us_p50"], out["sched.transit_us_p99"] = pct(a.transit, .5), pct(a.transit, .99)

	out["vm.fused_frac"] = ratio(fusedExec, float64(a.vmExecuted))
	out["vm.vec_frac"] = ratio(float64(s.VM.VecRows), float64(s.VM.FusedTuples))
	out["vm.vec_rows_per_batch"] = ratio(float64(s.VM.VecRows), float64(s.VM.VecBatches))
	out["vm.fallback_per_ktuple"] = ratio(float64(s.VM.Fallbacks), ktuples)
	out["vm.vec_abort_per_ktuple"] = ratio(float64(s.VM.VecAborts), ktuples)

	out["trace.events_per_ktuple"] = ratio(a.events, ktuples)
	out["obs.sample_ms"] = median(a.obsSample)
	out["pe.heap_peak_mb"] = float64(a.heapPeak) / (1 << 20)
}

// gcMeter reads the runtime's cumulative GC cost.
type gcMeter struct {
	gcCPU, totalCPU float64 // seconds
}

func readGC() gcMeter {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	var g gcMeter
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	return g
}

// traceClosed is the traced pass of a closed workload: untraced and
// traced trials alternate for the budget, then the same job runs under
// the manual model (no scheduler) as the single-threaded baseline.
func traceClosed(w closedWorkload, budget time.Duration, minTrials int, kit *traceKit) (plain, traced, manual closedResult, gcFrac float64, err error) {
	plain.inputs, traced.inputs = w.inputs(), w.inputs()
	if _, err = runTrial(w, pe.Dynamic, nil); err != nil {
		return
	}
	start, gc0 := time.Now(), readGC()
	for len(traced.trials) < minTrials || time.Since(start) < budget {
		var tr trial
		if tr, err = runTrial(w, pe.Dynamic, nil); err != nil {
			return
		}
		plain.trials = append(plain.trials, tr)
		if tr, err = runTrial(w, pe.Dynamic, kit); err != nil {
			return
		}
		traced.trials = append(traced.trials, tr)
	}
	gc1 := readGC()
	gcFrac = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	manual, err = runClosed(w, pe.Manual, 0, minTrials, nil)
	return
}

// closedLayerMetrics assembles a closed workload's per-layer metrics.
func closedLayerMetrics(plain, traced, manual closedResult, kit *traceKit, gcFrac float64, out map[string]float64) {
	kit.acc.counterMetrics(out)
	e2e := plain.summary()
	out["pe.allocs_per_tuple"] = e2e["allocs_per_tuple"]
	out["pe.bytes_per_tuple"] = e2e["bytes_per_tuple"]
	out["pe.start_ms"] = e2e["setup_s"] * 1e3
	out["pe.drain_ms"] = e2e["drain_s"] * 1e3
	out["pe.lat_p99_ms"] = e2e["lat_p99_ms"]
	out["pe.manual_tuples_per_s"] = manual.summary()["tuples_per_s"]
	out["sched.overhead_ratio"] = ratio(out["pe.manual_tuples_per_s"], e2e["tuples_per_s"])
	out["trace.overhead_frac"] = 1 - ratio(traced.summary()["tuples_per_s"], e2e["tuples_per_s"])
	var pause time.Duration
	for _, tr := range plain.trials {
		pause += tr.cost.gcPause
	}
	out["pe.gc_pause_ms_total"] = pause.Seconds() * 1e3
	out["pe.gc_cpu_frac"] = gcFrac
}

// waterfall is the span breakdown of the span-sampled tuples of an
// open-loop run: for each, due -> sent -> submit seam in -> out -> sink.
type waterfall struct {
	late, door, submit, transit, total []float64 // µs per sampled tuple
	spans                              []span
}

func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// buildWaterfall joins the four instants kept for every spanEvery-th
// tuple. Tuples that were shed, or that arrived outside [from, to),
// are skipped.
func buildWaterfall(gens []*generator, seam *spanSubmitter, st *sinkState, from, to time.Duration) waterfall {
	var w waterfall
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for c, g := range gens {
		for k, sent := range g.sendAt {
			if k >= len(seam.in[c]) || k >= len(st.sinkAt[c]) {
				break
			}
			in, out, sink := seam.in[c][k], seam.outAt[c][k], st.sinkAt[c][k]
			if sent == 0 || in == 0 || sink == 0 || sink < from || sink >= to {
				continue
			}
			i := uint64(k) * spanEvery
			due := g.due(i)
			w.late = append(w.late, us(sent-due))
			w.door = append(w.door, us(in-sent))
			w.submit = append(w.submit, us(out-in))
			w.transit = append(w.transit, us(sink-out))
			w.total = append(w.total, us(sink-due))
			for _, s := range []span{
				{"tuple", due, sink, "", c, i},
				{"gen.late", due, sent, "tuple", c, i},
				{"ingest.door", sent, in, "tuple", c, i},
				{"sched.submit", in, out, "tuple", c, i},
				{"sched.transit", out, sink, "tuple", c, i},
			} {
				w.spans = append(w.spans, s)
			}
		}
	}
	return w
}

// mid decomposes the median tuple. Component medians do not add up to
// the median latency — delays are bimodal, and a tuple that is slow at
// the door is rarely also slow in transit — so the breakdown is taken
// over the sampled tuples whose total lies between the 40th and 60th
// percentile: the means of their components add up to the mean of
// their totals, which is the sampled median to within the band.
func (w waterfall) mid() (late, door, submit, transit, total float64) {
	lo, hi := pct(w.total, .4), pct(w.total, .6)
	n := 0.0
	for i, t := range w.total {
		if t < lo || t > hi {
			continue
		}
		n++
		late += w.late[i]
		door += w.door[i]
		submit += w.submit[i]
		transit += w.transit[i]
		total += t
	}
	return ratio(late, n), ratio(door, n), ratio(submit, n), ratio(transit, n), ratio(total, n)
}

// openLayerMetrics assembles an open-loop workload's per-layer metrics
// from the untraced and traced windows of one traced pass.
func openLayerMetrics(w *ingestWorkload, plain, traced *openResult, kit *traceKit, wf waterfall, out map[string]float64) {
	// The scheduler counters cover the whole traced run, warm-up
	// included, so they are normalised by every tuple the run admitted.
	kit.acc.inputs = traced.final.Totals.Admitted
	kit.acc.counterMetrics(out)
	in := float64(plain.inWindow)
	out["pe.allocs_per_tuple"] = ratio(float64(plain.cost.mallocs), in)
	out["pe.bytes_per_tuple"] = ratio(float64(plain.cost.bytes), in)
	out["pe.start_ms"] = medianSeconds(plain.setups) * 1e3
	out["pe.drain_ms"] = plain.drain.Seconds() * 1e3
	out["pe.lat_p99_ms"] = plain.lat[0].p99.Seconds() * 1e3
	out["pe.gc_pause_ms_total"] = plain.cost.gcPause.Seconds() * 1e3
	out["trace.overhead_frac"] = 1 - ratio(float64(traced.sinkIn)/traced.window.Seconds(), float64(plain.sinkIn)/plain.window.Seconds())

	late, door, submit, transit, total := wf.mid()
	out["gen.late_us_mid"], out["ingest.door_us_mid"] = late, door
	out["sched.submit_us_mid"], out["sched.transit_us_mid"] = submit, transit
	// How well the 1-in-1024 sample stands for the population: the
	// median tuple of the sample over the median of every tuple.
	out["trace.waterfall_cover"] = ratio(total/1e3, traced.lat[0].p50.Seconds()*1e3)
	out["gen.late_us_p99"] = float64(lateP99(traced.gens)) / 1e3
	var lateMax time.Duration
	var sent, scheduled uint64
	for _, g := range traced.gens {
		lateMax = max(lateMax, g.lateMax)
		sent += g.sent
		scheduled += g.total()
	}
	out["gen.late_us_max"] = float64(lateMax) / 1e3
	out["gen.achieved_rate_frac"] = ratio(float64(sent), float64(scheduled))

	out["ingest.door_us_p50"], out["ingest.door_us_p99"] = pct(wf.door, .5), pct(wf.door, .99)
	out["sched.transit_us_p50"], out["sched.transit_us_p99"] = pct(wf.transit, .5), pct(wf.transit, .99)
	out["ingest.queue_depth_mean"] = ratio(kit.acc.qDepthSum, float64(kit.acc.qDepthN))
	out["ingest.queue_depth_max"] = float64(kit.acc.qDepthMax)

	tot := traced.final.Totals
	offered := float64(sent)
	out["ingest.admitted_frac"] = ratio(float64(tot.Admitted), offered)
	out["ingest.shed_frac"] = ratio(float64(tot.Shed), offered)
	out["ingest.throttled_frac"] = ratio(float64(tot.Throttled), offered)
	out["ingest.rejected"] = float64(tot.Rejected)
	out["ingest.evicted"] = float64(tot.Evicted)
	for c, spec := range w.conns {
		if spec.lossless || spec.tenant.Rate == 0 {
			continue
		}
		// The policed class: what it was admitted over what its contract
		// allows in the run's length, and the latency it absorbs.
		out["ingest.admit_over_contract"] = ratio(float64(traced.final.Tenants[c].Admitted), contractTuples(spec.tenant, traced.gens[c].end))
		out["ingest.bronze_p50_ms"] = traced.lat[c].p50.Seconds() * 1e3
		out["ingest.bronze_p99_ms"] = traced.lat[c].p99.Seconds() * 1e3
	}
}

// traceOpen is the traced pass of an open-loop workload: a third of
// the budget untraced, for the overhead comparison, the rest traced;
// then the ceiling flood and the isolated loops over the run's data.
func traceOpen(w *ingestWorkload, budget time.Duration, sz sizes, kit *traceKit, out map[string]float64) (plain, traced *openResult, wf waterfall, err error) {
	plainLen := max(budget/3/latWindow, 1) * latWindow
	if plain, err = runOpen(w, plainLen, sz.warmup, 1, nil); err != nil {
		return
	}
	if traced, err = runOpen(w, max(budget-plainLen, latWindow), sz.warmup, 0, kit); err != nil {
		return
	}
	wf = buildWaterfall(traced.gens, kit.seam, traced.sink, sz.warmup, sz.warmup+traced.window)
	openLayerMetrics(w, plain, traced, kit, wf, out)
	if out["ingest.ceiling_tps"], err = ceilingTPS(sz.ceiling); err != nil {
		err = fmt.Errorf("ceiling flood: %w", err)
		return
	}
	xportLoops(traced.gens[0], out)
	metricsLoops(allSamples(traced.sink.lat), out)
	return
}

// ceilingTPS floods the front door: two unmetered blocking tenants
// whose clients send as fast as TCP back-pressure lets them. The sink
// rate over the flood is the head-room the paced workloads run under.
func ceilingTPS(d time.Duration) (float64, error) {
	w := pacedWorkload(0)
	r, err := w.setup(nil, true, nil)
	if err != nil {
		return 0, err
	}
	stop := time.Now().Add(d + d/4)
	var wg sync.WaitGroup
	errs := make([]error, len(r.clients))
	for c, cl := range r.clients {
		wg.Add(1)
		go func(c int, cl *ingest.Client) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				if err := cl.Send(tuple.NewData(i, 0, uint64(c))); err != nil {
					errs[c] = err
					return
				}
				if i%256 == 255 {
					if err := cl.Flush(); err != nil {
						errs[c] = err
						return
					}
					if time.Now().After(stop) {
						return
					}
				}
			}
		}(c, cl)
	}
	time.Sleep(d / 4) // let the queues fill
	t0, n0 := time.Now(), r.sink.Count()
	time.Sleep(d)
	tps := float64(r.sink.Count()-n0) / time.Since(t0).Seconds()
	wg.Wait()
	if _, err := r.teardown(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return tps, nil
}

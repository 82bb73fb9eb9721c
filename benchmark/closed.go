package main

import (
	"fmt"
	"runtime"
	"time"

	"streams/internal/graph"
	"streams/internal/pe"
)

// A closed workload hands the whole input to the job at Start and
// waits for the graph to drain: the system under test sets the pace.
// One run executes as many fixed-size trials as fit in -seconds, each
// on a freshly compiled graph and a fresh PE, and reports the median
// trial of every metric.

// closedWorkload is the seeded, immutable part of a closed workload:
// inputs and reference results, computed once per run and outside every
// timed region.
type closedWorkload interface {
	// inputs is the number of input tuples (lines) one trial consumes.
	inputs() uint64
	// build compiles / wires a fresh graph for one trial.
	build() (*closedJob, error)
}

// closedJob is one trial's graph plus the hooks the harness needs at
// the sink: progress marks for the latency metrics and the oracle.
type closedJob struct {
	g *graph.Graph
	// sink receives delivery counts from the job's sink and keeps the
	// progress marks.
	sink *progress
	// sinkAt, when the workload's tuples carry a counter in Words[0],
	// holds the sink instant (since sink.start) of tuple k*spanEvery.
	sinkAt []time.Duration
	// check runs the workload's oracle after the drain and returns how
	// many owed tuples were lost, duplicated or wrong.
	check func(p *pe.PE) (failed uint64, err error)
}

// progress marks when the sink had received 50%, 95%, 99% and all of
// the tuples it is owed. A closed workload's whole input is due at
// Start, so the time from Start to the k-th delivery is that tuple's
// due-to-delivered latency; the marks are its p50, p95, p99 and maximum.
// Only the sink's executing thread calls add (one input port, so the
// port's consumer lock serializes it); the harness reads the marks
// after the drain.
type progress struct {
	start              time.Time
	owed               uint64
	n                  uint64
	at50, at95, at99   uint64
	t50, t95, t99, end time.Duration
}

func newProgress(owed uint64) *progress {
	return &progress{owed: owed, at50: (owed + 1) / 2, at95: owed - owed/20, at99: owed - owed/100}
}

func (p *progress) add(k uint64) {
	before := p.n
	p.n += k
	if p.n < p.at50 {
		return
	}
	if before < p.at50 {
		p.t50 = time.Since(p.start)
	}
	if before < p.at95 && p.n >= p.at95 {
		p.t95 = time.Since(p.start)
	}
	if before < p.at99 && p.n >= p.at99 {
		p.t99 = time.Since(p.start)
	}
	if before < p.owed && p.n >= p.owed {
		p.end = time.Since(p.start)
	}
}

// trial is what one closed trial measured.
type trial struct {
	setup, wall, drain time.Duration
	cost               cost
	t50, t95, t99      time.Duration
	failed             uint64
}

// peConfig is the host sizing every workload runs under: the dynamic
// scheduler at a static level of 2 threads, every other knob default.
func peConfig(model pe.Model) pe.Config {
	return pe.Config{Model: model, Threads: 2, MaxThreads: 2}
}

const drainTimeout = 120 * time.Second

// runTrial executes one closed trial. kit is nil in the untraced pass.
func runTrial(w closedWorkload, model pe.Model, kit *traceKit) (trial, error) {
	var tr trial
	runtime.GC()

	t0 := time.Now()
	job, err := w.build()
	if err != nil {
		return tr, err
	}
	cfg := peConfig(model)
	if kit != nil {
		kit.attach(&cfg, job.g)
	}
	p, err := pe.New(job.g, cfg)
	if err != nil {
		return tr, err
	}
	built := time.Since(t0)

	m0 := readMeter()
	t1 := time.Now()
	job.sink.start = t1
	if kit != nil {
		if job.sinkAt != nil {
			kit.seam.track(t1, []uint64{w.inputs()})
		}
		kit.begin(p, nil)
	}
	if err := p.Start(); err != nil {
		return tr, err
	}
	tr.setup = built + time.Since(t1)

	select {
	case <-p.Done():
	case <-time.After(drainTimeout):
		return tr, fmt.Errorf("graph did not drain within %v", drainTimeout)
	}
	tr.wall = time.Since(t1)
	m1 := readMeter()
	tr.cost = m1.since(m0)

	td := time.Now()
	p.Wait()
	tr.drain = time.Since(td)
	if kit != nil {
		kit.end(p, w.inputs())
		kit.foldTransit(job.sinkAt)
	}
	if err := p.Err(); err != nil {
		return tr, err
	}
	tr.t50, tr.t95, tr.t99 = job.sink.t50, job.sink.t95, job.sink.t99
	tr.failed, err = job.check(p)
	return tr, err
}

// closedResult aggregates a run's trials.
type closedResult struct {
	trials []trial
	inputs uint64 // per trial
}

// runClosed runs one warm-up trial and then timed trials until the
// budget is spent (at least minTrials).
func runClosed(w closedWorkload, model pe.Model, budget time.Duration, minTrials int, kit *traceKit) (closedResult, error) {
	res := closedResult{inputs: w.inputs()}
	if _, err := runTrial(w, model, nil); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	for len(res.trials) < minTrials || time.Since(start) < budget {
		tr, err := runTrial(w, model, kit)
		if err != nil {
			return res, fmt.Errorf("trial %d: %w", len(res.trials)+1, err)
		}
		res.trials = append(res.trials, tr)
	}
	return res, nil
}

// over maps every trial through f and returns the median.
func (r closedResult) over(f func(trial) float64) float64 {
	xs := make([]float64, len(r.trials))
	for i, tr := range r.trials {
		xs[i] = f(tr)
	}
	return median(xs)
}

func (r closedResult) failed() uint64 {
	var n uint64
	for _, tr := range r.trials {
		n += tr.failed
	}
	return n
}

// summary computes the end-to-end metrics of a closed run, and the four
// the traced pass reports under pe. (allocs, bytes, p99, drain).
func (r closedResult) summary() map[string]float64 {
	in := float64(r.inputs)
	return map[string]float64{
		"setup_s":           r.over(func(t trial) float64 { return t.setup.Seconds() }),
		"tuples_per_s":      r.over(func(t trial) float64 { return in / t.wall.Seconds() }),
		"cpu_us_per_ktuple": r.over(func(t trial) float64 { return t.cost.cpu.Seconds() * 1e9 / in }),
		"allocs_per_tuple":  r.over(func(t trial) float64 { return float64(t.cost.mallocs) / in }),
		"bytes_per_tuple":   r.over(func(t trial) float64 { return float64(t.cost.bytes) / in }),
		"lat_p50_ms":        r.over(func(t trial) float64 { return t.t50.Seconds() * 1e3 }),
		"lat_p95_ms":        r.over(func(t trial) float64 { return t.t95.Seconds() * 1e3 }),
		"lat_p99_ms":        r.over(func(t trial) float64 { return t.t99.Seconds() * 1e3 }),
		"drain_s":           r.over(func(t trial) float64 { return t.drain.Seconds() }),
	}
}

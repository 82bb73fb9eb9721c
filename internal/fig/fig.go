// Package fig defines one experiment per panel of the paper's evaluation
// figures and regenerates the series each panel plots.
//
//	Figure 9 (rows 1–2): pure pipeline, w=1 d=1000, costs {1, 100, 1000},
//	  Xeon and Power8 — throughput vs thread count for manual, dedicated,
//	  dynamic-static and dynamic-elastic.
//	Figure 9 (rows 3–4): pure data parallel, w=1000 d=1, costs
//	  {1, 10000, 100000}.
//	Figure 10: mixed, w=10 d=100, costs {1, 100, 1000}.
//	Figure 11: per-run elasticity traces (throughput and active threads
//	  vs time) for the pipeline, data-parallel and mixed rows.
//
// Multicore results come from the calibrated machine model in
// internal/sim (see that package and DESIGN.md for the substitution
// rationale); RunNative additionally executes any panel's workload on
// the real runtime at host scale for cross-checking.
package fig

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"streams/internal/graph"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/sim"
)

// Panel is one sub-plot of an evaluation figure.
type Panel struct {
	// ID is the panel's stable identifier, e.g. "fig9-pipeline-xeon-cost1".
	ID string
	// Figure names the source figure, e.g. "9-pipeline".
	Figure string
	// Machine is the modeled testbed.
	Machine *sim.Machine
	// Work is the workload configuration.
	Work sim.Workload
}

// String implements fmt.Stringer in the paper's panel-title style.
func (p Panel) String() string {
	return fmt.Sprintf("%s: %s", p.Machine.Name, p.Work)
}

func panels(figure, kind string, w, d int, costs []int) []Panel {
	var out []Panel
	for _, m := range []*sim.Machine{sim.Xeon(), sim.Power8()} {
		for _, c := range costs {
			out = append(out, Panel{
				ID:      fmt.Sprintf("fig%s-%s-cost%d", figure, strings.ToLower(m.Name), c),
				Figure:  figure,
				Machine: m,
				Work:    sim.Workload{Width: w, Depth: d, Cost: c},
			})
		}
	}
	_ = kind
	return out
}

// Fig9Pipeline returns the six pure-pipeline panels (Figure 9 rows 1–2).
func Fig9Pipeline() []Panel {
	return panels("9-pipeline", "pipeline", 1, 1000, []int{1, 100, 1000})
}

// Fig9DataParallel returns the six pure-data-parallel panels (Figure 9
// rows 3–4). The paper uses different costs on each machine; the union
// is generated and EXPERIMENTS.md indexes the paper's exact panels.
func Fig9DataParallel() []Panel {
	return panels("9-dataparallel", "dataparallel", 1000, 1, []int{1, 10000, 100000})
}

// Fig10 returns the six mixed panels.
func Fig10() []Panel {
	return panels("10", "mixed", 10, 100, []int{1, 100, 1000})
}

// Fig11 returns the six trace rows of Figure 11.
func Fig11() []Panel {
	rows := []struct {
		m *sim.Machine
		w sim.Workload
	}{
		{sim.Xeon(), sim.Workload{Width: 1, Depth: 1000, Cost: 1}},
		{sim.Power8(), sim.Workload{Width: 1, Depth: 1000, Cost: 1}},
		{sim.Xeon(), sim.Workload{Width: 1000, Depth: 1, Cost: 10000}},
		{sim.Power8(), sim.Workload{Width: 1000, Depth: 1, Cost: 1000000}},
		{sim.Xeon(), sim.Workload{Width: 10, Depth: 100, Cost: 1000}},
		{sim.Power8(), sim.Workload{Width: 10, Depth: 100, Cost: 1000}},
	}
	var out []Panel
	for _, r := range rows {
		out = append(out, Panel{
			ID:      fmt.Sprintf("fig11-%s-w%d-d%d-cost%d", strings.ToLower(r.m.Name), r.w.Width, r.w.Depth, r.w.Cost),
			Figure:  "11",
			Machine: r.m,
			Work:    r.w,
		})
	}
	return out
}

// AllPanels returns every panel of the evaluation.
func AllPanels() []Panel {
	var out []Panel
	out = append(out, Fig9Pipeline()...)
	out = append(out, Fig9DataParallel()...)
	out = append(out, Fig10()...)
	out = append(out, Fig11()...)
	return out
}

// FindPanel returns the panel with the given ID.
func FindPanel(id string) (Panel, bool) {
	for _, p := range AllPanels() {
		if p.ID == id {
			return p, true
		}
	}
	return Panel{}, false
}

// ThreadSweep is the default x-axis of the static sweeps, matching the
// paper's 0–200 thread range.
var ThreadSweep = []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 184, 200}

// StaticResult holds one Figure 9/10-style panel: all four series.
type StaticResult struct {
	Panel     Panel
	Threads   []int     // x values of the dynamic-static sweep
	Dynamic   []float64 // tuples/s at the sink per thread count
	Manual    float64
	Dedicated float64
	// Elastic summarizes runs of the elasticity algorithm (the paper
	// averages 5 runs and reports the settled level and throughput).
	ElasticLo, ElasticHi int     // settled thread-level band across runs
	ElasticMean          float64 // settled sink throughput, averaged
	ElasticStdDev        float64
}

// RunStatic computes one panel: the model's static series plus `runs`
// elastic runs with distinct seeds.
func RunStatic(p Panel, runs int) StaticResult {
	mo := sim.Model{M: p.Machine, W: p.Work}
	res := StaticResult{
		Panel:     p,
		Manual:    mo.SinkThroughput(sim.Manual, 1),
		Dedicated: mo.SinkThroughput(sim.Dedicated, 0),
	}
	for _, k := range ThreadSweep {
		if k > p.Machine.LogicalCores() && k != 184 && k != 200 {
			continue
		}
		res.Threads = append(res.Threads, k)
		res.Dynamic = append(res.Dynamic, mo.SinkThroughput(sim.Dynamic, min(k, p.Machine.LogicalCores())))
	}
	if runs < 1 {
		runs = 1
	}
	var w metrics.Welford
	res.ElasticLo = p.Machine.LogicalCores() + 1
	for seed := 0; seed < runs; seed++ {
		trace := sim.RunElastic(mo, sim.ElasticConfig{Seed: int64(seed + 1)})
		lo, hi := sim.SettledLevels(trace, 0.2)
		res.ElasticLo = min(res.ElasticLo, lo)
		res.ElasticHi = max(res.ElasticHi, hi)
		w.Add(sim.SettledThroughput(trace, 0.2) / float64(p.Work.OpsPerTuple()))
	}
	res.ElasticMean = w.Mean()
	res.ElasticStdDev = w.StdDev()
	return res
}

// Table renders the panel as an aligned text table: the same series the
// paper plots.
func (r StaticResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (%s)\n", r.Panel.String(), r.Panel.ID)
	fmt.Fprintf(&sb, "  %-22s %14s\n", "series", "tuples/s")
	fmt.Fprintf(&sb, "  %-22s %14.3g\n", "manual (1 thread)", r.Manual)
	fmt.Fprintf(&sb, "  %-22s %14.3g\n", "dedicated (1/port)", r.Dedicated)
	for i, k := range r.Threads {
		fmt.Fprintf(&sb, "  dynamic static k=%-5d %14.3g\n", k, r.Dynamic[i])
	}
	fmt.Fprintf(&sb, "  dynamic elastic        %14.3g ± %.2g  (settles %d–%d threads)\n",
		r.ElasticMean, r.ElasticStdDev, r.ElasticLo, r.ElasticHi)
	return sb.String()
}

// BestStatic returns the sweep's peak (level, throughput).
func (r StaticResult) BestStatic() (int, float64) {
	best, bt := 0, 0.0
	for i, k := range r.Threads {
		if r.Dynamic[i] > bt {
			best, bt = k, r.Dynamic[i]
		}
	}
	return best, bt
}

// TraceTable renders a Figure 11-style trace as text.
func TraceTable(p Panel, trace []sim.TracePoint, every int) string {
	if every < 1 {
		every = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (%s)\n", p.String(), p.ID)
	fmt.Fprintf(&sb, "  %8s %14s %8s\n", "seconds", "tuples/s (PE)", "threads")
	for i, pt := range trace {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %8.0f %14.3g %8d\n", pt.Second, pt.Throughput, pt.Threads)
	}
	return sb.String()
}

// NativeConfig controls a real-runtime cross-check run.
type NativeConfig struct {
	// PE configures the processing element the run executes on. Two of
	// its defaults differ for native runs, which are far shorter than
	// production and sized to the host: AdaptPeriod defaults to 250ms,
	// and MaxThreads to max(Threads, 1), elastic or not (see PEConfig).
	PE pe.Config
	// Duration is how long to measure after a brief warmup.
	Duration time.Duration
	// VM attaches bytecode programs to the topology's workers so the
	// dynamic scheduler can fuse chain runs into superinstruction
	// dispatch loops (streamsim -vm).
	VM bool
	// OnStart, if set, observes the live PE right after Start — the hook
	// the debug endpoint uses to attach to a running PE without this
	// package importing the server.
	OnStart func(*pe.PE)
	// Source, if non-nil, replaces the workload's synthetic Generator
	// with a caller-provided source operator (streamsim -ingest-addr
	// places the network front end here). Throughput is still measured
	// at the sink, so it reports whatever the source actually feeds.
	Source graph.Source
}

// PEConfig returns the pe.Config RunNative runs with: cfg.PE with the
// native-run defaults applied. Size a tracer for the run with
// pe.TraceRings of it.
func (cfg NativeConfig) PEConfig() pe.Config {
	c := cfg.PE
	if c.AdaptPeriod <= 0 {
		c.AdaptPeriod = 250 * time.Millisecond
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = max(c.Threads, 1)
	}
	return c
}

// NativeResult reports a native run: measured sink throughput plus the
// scheduler's slow-path meters over the whole run (warmup included),
// so contention experiments can report steals/spills alongside
// tuples/s.
type NativeResult struct {
	// Throughput is measured sink tuples/s over the measurement window.
	Throughput float64
	// Stats carries the scheduler's reschedule/find-failure/contention
	// counters (zero under the manual and dedicated models).
	Stats pe.SchedStats
	// Faults carries the fault-containment meters (all models); all-zero
	// unless operators misbehaved or chaos injection was armed.
	Faults metrics.FaultsSnapshot
	// Latency is the end-to-end latency distribution (zero Total unless
	// NativeConfig.PE.Latency was set).
	Latency metrics.HistogramSnapshot
	// FinalLevel is the thread level at the end of the run (interesting
	// under Elastic).
	FinalLevel int
}

// RunNative executes a (scaled-down) workload on the real runtime of
// this repository and returns measured sink tuples/s with scheduler
// statistics. It validates the scheduler's behaviour at host scale; it
// does not reproduce the paper's multicore numbers (see package
// comment).
func RunNative(w sim.Workload, cfg NativeConfig) (NativeResult, error) {
	topo := ops.Topology{Width: w.Width, Depth: w.Depth, Cost: w.Cost, VM: cfg.VM}
	var (
		g   *graph.Graph
		snk *ops.Sink
		err error
	)
	if cfg.Source != nil {
		g, snk, err = topo.BuildWithSource(cfg.Source)
	} else {
		g, snk, err = topo.Build()
	}
	if err != nil {
		return NativeResult{}, err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	p, err := pe.New(g, cfg.PEConfig())
	if err != nil {
		return NativeResult{}, err
	}
	if cfg.PE.Tracer != nil {
		cfg.PE.Tracer.Enable()
	}
	if err := p.Start(); err != nil {
		return NativeResult{}, err
	}
	if cfg.OnStart != nil {
		cfg.OnStart(p)
	}
	warm := cfg.Duration / 4
	time.Sleep(warm)
	before := snk.Count()
	start := time.Now()
	time.Sleep(cfg.Duration)
	delta := snk.Count() - before
	elapsed := time.Since(start).Seconds()
	level := p.Level()
	p.Stop()
	return NativeResult{
		Throughput: float64(delta) / elapsed,
		Stats:      p.SchedStats(),
		Faults:     p.FaultStats(),
		Latency:    cfg.PE.Latency.Snapshot(),
		FinalLevel: level,
	}, nil
}

// CtxSwitchEstimate is the §5.1 modeled context-switch comparison for
// one panel: the dedicated model against the dynamic model at its best
// static thread count. One struct feeds both presentations — String for
// the CLI's -verbose line, the JSON field tags for the debug endpoint —
// so the two can never drift apart.
type CtxSwitchEstimate struct {
	// Dedicated is modeled context switches/s with a thread per port.
	Dedicated float64 `json:"dedicated"`
	// BestK is the dynamic sweep's best static thread count.
	BestK int `json:"best_k"`
	// Dynamic is modeled context switches/s for the dynamic model at
	// BestK threads.
	Dynamic float64 `json:"dynamic"`
}

// String renders the -verbose line.
func (e CtxSwitchEstimate) String() string {
	return fmt.Sprintf("ctx switches/s: dedicated %.3g, dynamic(k=%d) %.3g",
		e.Dedicated, e.BestK, e.Dynamic)
}

// CtxSwitches computes the panel's context-switch estimate from the
// calibrated machine model.
func (r StaticResult) CtxSwitches() CtxSwitchEstimate {
	mo := sim.Model{M: r.Panel.Machine, W: r.Panel.Work}
	bestK, _ := r.BestStatic()
	return CtxSwitchEstimate{
		Dedicated: mo.CtxSwitchesPerSecond(sim.Dedicated, 0),
		BestK:     bestK,
		Dynamic:   mo.CtxSwitchesPerSecond(sim.Dynamic, bestK),
	}
}

// SortPanelsByID orders panels deterministically for report output.
func SortPanelsByID(ps []Panel) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
}

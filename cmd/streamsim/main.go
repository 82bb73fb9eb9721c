// Command streamsim regenerates the paper's evaluation figures.
//
// Usage:
//
//	streamsim -list
//	streamsim -fig 9-pipeline            # all panels of one figure
//	streamsim -panel fig10-xeon-cost1000 # one panel
//	streamsim -all                       # every panel
//	streamsim -panel fig11-xeon-w1-d1000-cost1 -runs 3   # traces
//	streamsim -native -w 2 -d 8 -cost 100 -threads 2     # real runtime
//	streamsim -native -chaos panic=0.001,slow=0.001:20us # runtime under chaos
//	streamsim -native -trace out.json -latency           # scheduler trace + latency
//	streamsim -native -debug-addr localhost:6060         # live /debugz endpoint
//	streamsim -native -obs -metricz -flightrec fr.json   # flow observability
//	streamsim -verbose                   # adds §5.1 context-switch estimates
//
// Static panels print the four series of Figures 9 and 10 (manual,
// dedicated, dynamic static sweep, dynamic elastic); Figure 11 panels
// print throughput/threads traces. Results come from the calibrated
// machine model (see internal/sim); -native runs the actual runtime on
// this host instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"streams/internal/debugz"
	"streams/internal/fault"
	"streams/internal/fig"
	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/obs"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/sim"
	"streams/internal/trace"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list all panel IDs and exit")
		figure  = flag.String("fig", "", "print all panels of one figure: 9-pipeline, 9-dataparallel, 10, 11")
		panel   = flag.String("panel", "", "print one panel by ID")
		all     = flag.Bool("all", false, "print every panel")
		runs    = flag.Int("runs", 5, "elastic runs per panel (the paper repeats 5 times)")
		every   = flag.Int("every", 5, "print every Nth trace point for figure 11 panels")
		verbose = flag.Bool("verbose", false, "include context-switch estimates (§5.1)")

		native   = flag.Bool("native", false, "run the real runtime on this host instead of the model")
		width    = flag.Int("w", 2, "native: data-parallel width")
		depth    = flag.Int("d", 8, "native: pipeline depth")
		cost     = flag.Int("cost", 100, "native: flops per tuple")
		model    = flag.String("model", "dynamic", "native: manual, dedicated or dynamic")
		threads  = flag.Int("threads", 2, "native: dynamic thread count")
		dur      = flag.Duration("dur", 2*time.Second, "native: measurement duration")
		globalfl = flag.Bool("globalfl", false, "native: use the paper's single global free list instead of the sharded per-thread caches")
		vmFuse   = flag.Bool("vm", false, "native: attach bytecode programs to workers so chain runs execute as fused superinstruction programs")

		chaos      = flag.String("chaos", "", "native: chaos spec, e.g. panic=0.001,slow=0.001:20us,stall=0.001:20us (see internal/fault)")
		chaosSeed  = flag.Uint64("chaos-seed", 42, "native: chaos injector seed (deterministic per seed)")
		quarantine = flag.Int("quarantine", 3, "native: panic strikes before an operator is quarantined; 0 or less never quarantines")

		elastic    = flag.Bool("elastic", false, "native: enable the elasticity controller (dynamic model only)")
		adapt      = flag.Duration("adapt", 250*time.Millisecond, "native: elasticity measurement period")
		maxthreads = flag.Int("maxthreads", 0, "native: dynamic thread-level cap (default: -threads)")
		traceOut   = flag.String("trace", "", "native: write a Chrome trace_event file of scheduler decisions to this path (open in chrome://tracing or Perfetto)")
		latency    = flag.Bool("latency", false, "native: measure end-to-end tuple latency from source stamp to sink drain")
		debugAddr  = flag.String("debug-addr", "", "native: serve /debugz, /debugz/stats, /debugz/trace, /debugz/tenants, /debugz/flows, /debugz/flightrec, /metricz and /debug/pprof on this address for the duration of the run")

		obsOn     = flag.Bool("obs", false, "native: enable flow observability — periodic backpressure sampling, bottleneck attribution, /debugz/flows and /metricz (implied by -metricz and -flightrec)")
		obsPeriod = flag.Duration("obs-period", 100*time.Millisecond, "native: flow-observability sampling period")
		metricz   = flag.Bool("metricz", false, "native: print the final OpenMetrics exposition to stdout after the run (implies -obs)")
		flightrec = flag.String("flightrec", "", "native: flight-recorder dump file, overwritten whenever fault containment or ingest overload fires (implies -obs)")

		ingestAddr   = flag.String("ingest-addr", "", "native: serve the multi-tenant network ingest front end on this address and make it the graph's source (replaces the synthetic generator)")
		tenants      = flag.String("tenants", "gold:20000:512:block:guaranteed,bronze:20000:512", "native: ingest tenant spec, comma-separated name:rate[:burst[:policy[:class]]] (class: guaranteed or besteffort)")
		shedPolicy   = flag.String("shed-policy", "shed-oldest", "native: default full-queue policy for tenants that do not name one (block, shed-oldest, shed-newest)")
		ingestGen    = flag.Float64("ingest-gen", 0, "native: offered load in tuples/s per tenant from built-in open-loop generators over the run (0 = external clients only)")
		backlogLimit = flag.Int("backlog-limit", 0, "native: runtime backlog above which best-effort ingest traffic is shed at the door (0 = gate off)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, p := range fig.AllPanels() {
			fmt.Printf("%-40s %s\n", p.ID, p.String())
		}
	case *native:
		m, err := parseModel(*model)
		if err != nil {
			fatal(err)
		}
		w := sim.Workload{Width: *width, Depth: *depth, Cost: *cost}
		freeList := "sharded"
		if *globalfl {
			freeList = "global"
		}
		inj, err := fault.ParseSpec(*chaos, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("native run on this host: %s, model %s, threads %d, free list %s\n",
			w, m, *threads, freeList)
		if inj != nil {
			fmt.Printf("chaos armed: %s (seed %d)\n", *chaos, *chaosSeed)
		}
		qa := *quarantine
		if qa <= 0 {
			qa = 1 << 30 // effectively never
		}
		cfg := fig.NativeConfig{
			PE: pe.Config{
				Model: m, Threads: *threads, GlobalFreeList: *globalfl,
				Fault: inj, QuarantineAfter: qa,
				Elastic: *elastic, AdaptPeriod: *adapt, MaxThreads: *maxthreads,
			},
			Duration: *dur, VM: *vmFuse,
		}
		// The ring count depends on the thread table and the source
		// count, and every native topology has one source.
		g, _, err := ops.Topology{Width: w.Width, Depth: w.Depth}.Build()
		if err != nil {
			fatal(err)
		}
		rings := pe.TraceRings(cfg.PEConfig(), g)
		obsEnabled := *obsOn || *metricz || *flightrec != ""
		var tr *trace.Tracer
		obsRing := -1
		if *traceOut != "" || *debugAddr != "" {
			// The ingest front end and the observability sampler each get
			// one ring of their own past the scheduler's allocation.
			extra := 0
			if *ingestAddr != "" {
				extra++
			}
			if obsEnabled {
				obsRing = rings + extra
				extra++
			}
			tr = trace.New(rings+extra, 0)
			if *ingestAddr != "" {
				tr.SetLabel(rings, "ingest")
			}
			if obsRing >= 0 {
				tr.SetLabel(obsRing, "obs")
			}
			cfg.PE.Tracer = tr
		}
		if *latency || *debugAddr != "" || obsEnabled {
			// Shard count only tunes contention; Record masks the tid, so
			// the dynamic ring count is a fine size for every model.
			cfg.PE.Latency = metrics.NewHistogram(rings)
		}
		var ingSrv *ingest.Server
		var livePE atomic.Pointer[pe.PE]
		if *ingestAddr != "" {
			defPol, err := ingest.ParsePolicy(*shedPolicy)
			if err != nil {
				fatal(err)
			}
			tcs, err := ingest.ParseTenants(*tenants, defPol)
			if err != nil {
				fatal(err)
			}
			ingCfg := ingest.Config{
				Tenants:      tcs,
				Fault:        inj,
				BacklogLimit: *backlogLimit,
			}
			if *backlogLimit > 0 {
				// The PE does not exist yet; the pump reads it through
				// this indirection once OnStart publishes it.
				ingCfg.Backlog = func() int {
					if p := livePE.Load(); p != nil {
						return p.Backlog()
					}
					return 0
				}
			}
			if tr != nil {
				ingCfg.Tracer = tr
				ingCfg.TraceRing = rings
			}
			ingSrv, err = ingest.NewServer(ingCfg)
			if err != nil {
				fatal(err)
			}
			if err := ingSrv.Listen(*ingestAddr); err != nil {
				fatal(err)
			}
			fmt.Printf("ingest front end: %s (%d tenants, default policy %s)\n",
				ingSrv.Addr(), len(tcs), defPol)
			cfg.Source = ingSrv
		}
		var col *obs.Collector
		onStart := func(p *pe.PE) {
			livePE.Store(p)
			if obsEnabled {
				rec := &obs.Recorder{Path: *flightrec, Tracer: tr}
				col = obs.New(obs.Options{
					PE: p, Ingest: ingSrv, Latency: cfg.PE.Latency,
					Tracer: tr, Ring: obsRing, Period: *obsPeriod,
					Recorder: rec, Workload: w.String(),
				})
				col.Start()
				if *flightrec != "" {
					fmt.Printf("flight recorder: armed, dumps to %s\n", *flightrec)
				}
			}
			if *debugAddr != "" {
				srv, err := debugz.Serve(*debugAddr, debugz.Options{
					PE: p, Tracer: tr, Latency: cfg.PE.Latency, Workload: w.String(),
					Ingest: ingSrv, Obs: col,
				})
				if err != nil {
					fatal(err)
				}
				fmt.Printf("debug endpoint: http://%s/debugz\n", srv.Addr())
			}
			if ingSrv != nil && *ingestGen > 0 {
				// Built-in open-loop generators: one per tenant at the
				// requested offered rate, running past the measurement
				// window so load never tails off mid-run.
				for _, spec := range strings.Split(*tenants, ",") {
					name := strings.TrimSpace(strings.SplitN(spec, ":", 2)[0])
					if name == "" {
						continue
					}
					g := &ingest.LoadGen{
						Addr: ingSrv.Addr(), Tenant: name,
						Rate: *ingestGen, Duration: *dur * 2,
					}
					go func() { _, _ = g.Run() }()
				}
			}
		}
		cfg.OnStart = onStart
		res, err := fig.RunNative(w, cfg)
		if err != nil {
			fatal(err)
		}
		if col != nil {
			col.Stop()
			if p := livePE.Load(); p != nil && p.Err() != nil {
				// A stuck scheduler thread blew the shutdown deadline; the
				// window leading up to it is exactly what the recorder is
				// for.
				col.Trigger("shutdown-deadline")
			}
		}
		fmt.Printf("sink throughput: %.4g tuples/s\n", res.Throughput)
		// All remaining lines render through the same snapshot path the
		// /debugz endpoint serves, so the two views cannot drift.
		snap := debugz.FromNative(m, w.String(), res, tr)
		if ingSrv != nil {
			in := ingSrv.Snapshot()
			snap.Ingest = &in
			ingSrv.Close()
		}
		snap.WriteText(os.Stdout)
		if col != nil {
			fmt.Println()
			col.Snapshot().WriteText(os.Stdout)
			if dump, n := col.Recorder().LastDump(); n > 0 {
				fmt.Printf("flight recorder: %d dump(s), last %d bytes", n, len(dump))
				if *flightrec != "" {
					fmt.Printf(" -> %s", *flightrec)
				}
				fmt.Println()
			}
			if *metricz {
				fmt.Println()
				if err := col.WriteMetrics(os.Stdout); err != nil {
					fatal(err)
				}
			}
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, tr); err != nil {
				fatal(err)
			}
		}
	case *panel != "":
		p, ok := fig.FindPanel(*panel)
		if !ok {
			fatal(fmt.Errorf("unknown panel %q (use -list)", *panel))
		}
		printPanel(p, *runs, *every, *verbose)
	case *figure != "":
		printed := false
		for _, p := range fig.AllPanels() {
			if p.Figure == *figure {
				printPanel(p, *runs, *every, *verbose)
				printed = true
			}
		}
		if !printed {
			fatal(fmt.Errorf("unknown figure %q (9-pipeline, 9-dataparallel, 10, 11)", *figure))
		}
	case *all:
		for _, p := range fig.AllPanels() {
			printPanel(p, *runs, *every, *verbose)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printPanel(p fig.Panel, runs, every int, verbose bool) {
	if p.Figure == "11" {
		mo := sim.Model{M: p.Machine, W: p.Work}
		for seed := 1; seed <= runs; seed++ {
			elTrace := sim.RunElastic(mo, sim.ElasticConfig{Seed: int64(seed)})
			fmt.Printf("run %d/%d:\n%s\n", seed, runs, fig.TraceTable(p, elTrace, every))
		}
		return
	}
	r := fig.RunStatic(p, runs)
	fmt.Println(r.Table())
	if verbose {
		// The same CtxSwitchEstimate the debug endpoint serves as JSON.
		fmt.Printf("  %s\n\n", r.CtxSwitches())
	}
}

// writeTrace dumps the tracer to path in Chrome trace_event format.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Export(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	events := tr.Snapshot()
	fmt.Printf("trace: %d events written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", len(events), path)
	return nil
}

func parseModel(s string) (pe.Model, error) {
	switch strings.ToLower(s) {
	case "manual":
		return pe.Manual, nil
	case "dedicated":
		return pe.Dedicated, nil
	case "dynamic":
		return pe.Dynamic, nil
	default:
		return 0, fmt.Errorf("unknown threading model %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streamsim:", err)
	os.Exit(1)
}

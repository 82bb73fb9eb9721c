// Benchmarks regenerating the paper's evaluation, one per figure panel
// group, plus the ablation benchmarks DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Figure benchmarks drive the calibrated machine model (internal/sim)
// and attach the headline series values as custom metrics, so a bench
// run reproduces the numbers EXPERIMENTS.md records. Native benchmarks
// execute the real runtime on the host. Ablation benchmarks reverse one
// scheduler design decision each and measure the cost in real execution.
package streams_test

import (
	"fmt"
	"testing"

	"streams"
	"streams/internal/elastic"
	"streams/internal/fig"
	"streams/internal/pe"
	"streams/internal/sched"
	"streams/internal/sim"
)

// ----- Figure 9, rows 1–2: pure pipeline -----

func BenchmarkFig9Pipeline(b *testing.B) {
	benchStaticPanels(b, fig.Fig9Pipeline())
}

// ----- Figure 9, rows 3–4: pure data parallel -----

func BenchmarkFig9DataParallel(b *testing.B) {
	benchStaticPanels(b, fig.Fig9DataParallel())
}

// ----- Figure 10: mixed data parallel and pipeline -----

func BenchmarkFig10Mixed(b *testing.B) {
	benchStaticPanels(b, fig.Fig10())
}

func benchStaticPanels(b *testing.B, panels []fig.Panel) {
	for _, p := range panels {
		p := p
		b.Run(p.ID, func(b *testing.B) {
			var r fig.StaticResult
			for i := 0; i < b.N; i++ {
				r = fig.RunStatic(p, 5)
			}
			_, best := r.BestStatic()
			b.ReportMetric(r.Manual, "manual-tps")
			b.ReportMetric(r.Dedicated, "dedicated-tps")
			b.ReportMetric(best, "dynamic-best-tps")
			b.ReportMetric(r.ElasticMean, "elastic-tps")
			b.ReportMetric(float64(r.ElasticLo), "elastic-lo-threads")
			b.ReportMetric(float64(r.ElasticHi), "elastic-hi-threads")
		})
	}
}

// ----- Figure 11: elasticity traces -----

func BenchmarkFig11PipelineTrace(b *testing.B) {
	benchTracePanels(b, fig.Fig11()[0:2])
}

func BenchmarkFig11DataParallelTrace(b *testing.B) {
	benchTracePanels(b, fig.Fig11()[2:4])
}

func BenchmarkFig11MixedTrace(b *testing.B) {
	benchTracePanels(b, fig.Fig11()[4:6])
}

func benchTracePanels(b *testing.B, panels []fig.Panel) {
	for _, p := range panels {
		p := p
		b.Run(p.ID, func(b *testing.B) {
			mo := sim.Model{M: p.Machine, W: p.Work}
			var trace []sim.TracePoint
			for i := 0; i < b.N; i++ {
				trace = sim.RunElastic(mo, sim.ElasticConfig{Seed: 1})
			}
			lo, hi := sim.SettledLevels(trace, 0.2)
			b.ReportMetric(float64(lo), "settle-lo-threads")
			b.ReportMetric(float64(hi), "settle-hi-threads")
			b.ReportMetric(sim.SettledThroughput(trace, 0.2), "settled-pe-tps")
		})
	}
}

// ----- Native runtime benchmarks (real execution on this host) -----

// benchNative pushes b.N tuples through a real pipeline and reports
// per-tuple cost.
func benchNative(b *testing.B, model streams.Model, threads, depth, qcap int, scfg sched.Config) {
	b.Helper()
	top := streams.NewTopology()
	src := top.Add(&streams.Generator{Limit: uint64(b.N)}, 0, 1)
	prev := src
	for i := 0; i < depth; i++ {
		w := top.Add(&streams.Worker{Cost: 16}, 1, 1)
		top.Connect(prev, 0, w, 0)
		prev = w
	}
	snk := &streams.Sink{}
	out := top.Add(snk, 1, 0)
	top.Connect(prev, 0, out, 0)
	g, err := top.Build()
	if err != nil {
		b.Fatal(err)
	}
	scfg.MaxThreads = max(threads, 1)
	if qcap != 0 {
		scfg.QueueCap = qcap
	}
	p, err := pe.New(g, pe.Config{
		Model:      model,
		Threads:    threads,
		MaxThreads: max(threads, 1),
		QueueCap:   qcap,
		Sched:      scfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := p.Start(); err != nil {
		b.Fatal(err)
	}
	p.Wait()
	b.StopTimer()
	if snk.Count() != uint64(b.N) {
		b.Fatalf("delivered %d of %d tuples", snk.Count(), b.N)
	}
}

func BenchmarkNativeModels(b *testing.B) {
	for _, model := range []streams.Model{streams.ModelManual, streams.ModelDedicated, streams.ModelDynamic} {
		b.Run(model.String(), func(b *testing.B) {
			benchNative(b, model, 2, 16, 0, sched.Config{})
		})
	}
}

func BenchmarkNativeDynamicThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchNative(b, streams.ModelDynamic, threads, 16, 0, sched.Config{})
		})
	}
}

// ----- Ablation benchmarks (DESIGN.md's design-choice index) -----

// benchAblation measures the dynamic scheduler with one design decision
// reversed.
func benchAblation(b *testing.B, qcap int, scfg sched.Config) {
	benchNative(b, streams.ModelDynamic, 2, 16, qcap, scfg)
}

func BenchmarkAblationReschedLimit(b *testing.B) {
	for _, limit := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			benchAblation(b, 64, sched.Config{ReschedLimit: limit})
		})
	}
}

// BenchmarkAblationFreeListSharding measures what the sharded free list
// (this repo's extension beyond the paper) buys over the paper's single
// global MPMC list on a real pipeline run; the microbenchmark sweep
// behind the same question is BenchmarkFreeListContention in
// internal/sched.
func BenchmarkAblationFreeListSharding(b *testing.B) {
	b.Run("sharded", func(b *testing.B) { benchAblation(b, 0, sched.Config{}) })
	b.Run("global-paper", func(b *testing.B) { benchAblation(b, 0, sched.Config{GlobalFreeList: true}) })
}

// BenchmarkAblationElasticHistory compares trust-wipe (the paper) with
// the remember-history extension (§5.4's future work) on the paper's own
// pathology: the noisy Power8 data-parallel run of Figure 11, where the
// wipe-mode controller keeps discarding history and oscillates. Reported
// metrics: thread-level changes in the second half of a 1400s run, plus
// workload-change recovery behaviour.
func BenchmarkAblationElasticHistory(b *testing.B) {
	mo := sim.Model{M: sim.Power8(), W: sim.Workload{Width: 1000, Depth: 1, Cost: 1000000}}
	for _, remember := range []bool{false, true} {
		name := "wipe-paper"
		if remember {
			name = "remember-history"
		}
		b.Run(name, func(b *testing.B) {
			var changes int
			var stable, frac float64
			for i := 0; i < b.N; i++ {
				trace := sim.RunElastic(mo, sim.ElasticConfig{Seed: 5, RememberHistory: remember})
				changes = 0
				half := trace[len(trace)/2:]
				for j := 1; j < len(half); j++ {
					if half[j].Threads != half[j-1].Threads {
						changes++
					}
				}
				stable, frac = measureRecovery(remember)
			}
			b.ReportMetric(float64(changes), "oscillation-changes")
			b.ReportMetric(stable, "periods-to-stable")
			b.ReportMetric(frac*100, "settled-pct-of-best")
		})
	}
}

// measureRecovery simulates a workload change under the Xeon mixed model
// and returns (a) the last period in which the controller still changed
// its level — how long the disruption lasted — and (b) the fraction of
// the post-change optimum the controller finally operates at.
func measureRecovery(remember bool) (stablePeriod, settledFrac float64) {
	mo := sim.Model{M: sim.Xeon(), W: sim.Workload{Width: 10, Depth: 100, Cost: 1000}}
	mo2 := sim.Model{M: sim.Xeon(), W: sim.Workload{Width: 10, Depth: 100, Cost: 100}}
	ctl, err := elastic.New(elastic.Config{
		MaxLevel:        sim.Xeon().LogicalCores(),
		Geometric:       true,
		RememberHistory: remember,
	})
	if err != nil {
		panic(err)
	}
	level := ctl.Level()
	// Settle on workload 1.
	for i := 0; i < 60; i++ {
		level = ctl.Update(mo.PEThroughput(sim.Dynamic, level))
	}
	// Switch workloads; watch 100 periods.
	const horizon = 100
	prev := level
	for i := 1; i <= horizon; i++ {
		level = ctl.Update(mo2.PEThroughput(sim.Dynamic, level))
		if level != prev {
			stablePeriod = float64(i)
		}
		prev = level
	}
	_, best := mo2.BestDynamic()
	settledFrac = mo2.SinkThroughput(sim.Dynamic, level) / best
	return stablePeriod, settledFrac
}

// BenchmarkLatencyModels measures mean end-to-end tuple latency under
// each threading model with a throttled source (§2.2: manual has the
// lowest latency because there are no queues and no copies).
func BenchmarkLatencyModels(b *testing.B) {
	for _, model := range []streams.Model{streams.ModelManual, streams.ModelDedicated, streams.ModelDynamic} {
		b.Run(model.String(), func(b *testing.B) {
			top := streams.NewTopology()
			src := top.Add(&streams.Generator{Limit: uint64(b.N), Stamp: true}, 0, 1)
			prev := src
			for i := 0; i < 8; i++ {
				w := top.Add(&streams.Worker{Cost: 50}, 1, 1)
				top.Connect(prev, 0, w, 0)
				prev = w
			}
			snk := &streams.Sink{TrackLatency: true}
			out := top.Add(snk, 1, 0)
			top.Connect(prev, 0, out, 0)
			job, err := streams.Run(top, streams.RunConfig{Model: model, Threads: 2, MaxThreads: 2})
			if err != nil {
				b.Fatal(err)
			}
			job.Wait()
			mean, maxLat := snk.Latency()
			b.ReportMetric(float64(mean.Nanoseconds()), "mean-latency-ns")
			b.ReportMetric(float64(maxLat.Nanoseconds()), "max-latency-ns")
		})
	}
}

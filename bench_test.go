// Benchmarks regenerating the paper's evaluation, one per figure panel
// group, plus the free-list ablation DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Figure benchmarks drive the calibrated machine model (internal/sim)
// and attach the headline series values as custom metrics, so a bench
// run reproduces the numbers EXPERIMENTS.md records. Native benchmarks
// execute the real runtime on the host. The ablation benchmark reverses
// the sharded free list, the one scheduler design decision left with a
// switch, and measures the cost in real execution.
package streams_test

import (
	"fmt"
	"testing"

	"streams"
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
func benchNative(b *testing.B, model streams.Model, threads, depth int, scfg sched.Config) {
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
	p, err := pe.New(g, pe.Config{
		Model:      model,
		Threads:    threads,
		MaxThreads: max(threads, 1),
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
			benchNative(b, model, 2, 16, sched.Config{})
		})
	}
}

func BenchmarkNativeDynamicThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchNative(b, streams.ModelDynamic, threads, 16, sched.Config{})
		})
	}
}

// ----- Ablation benchmark (DESIGN.md's design-choice index) -----

// BenchmarkAblationFreeListSharding measures what the sharded free list
// (this repo's extension beyond the paper) buys over the paper's single
// global MPMC list on a real pipeline run; the microbenchmark sweep
// behind the same question is BenchmarkFreeListContention in
// internal/sched.
func BenchmarkAblationFreeListSharding(b *testing.B) {
	b.Run("sharded", func(b *testing.B) {
		benchNative(b, streams.ModelDynamic, 2, 16, sched.Config{})
	})
	b.Run("global-paper", func(b *testing.B) {
		benchNative(b, streams.ModelDynamic, 2, 16, sched.Config{GlobalFreeList: true})
	})
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

// Elastictrace produces Figure 11-style elasticity traces three ways:
// first live, by running the real runtime on this host with a fast
// adaptation period and printing throughput, thread level, and the
// controller rule that decided each period; then as an offline decision
// log, by driving the elasticity controller against a synthetic
// throughput curve with the scheduler tracer attached, showing that
// every level change emits exactly one elastic-level trace event; then
// simulated, by replaying the same controller against the paper's
// 176-core Xeon model for the full 1400-second experiment.
//
//	go run ./examples/elastictrace
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"streams"
	"streams/internal/elastic"
	"streams/internal/fig"
	"streams/internal/pe"
	"streams/internal/sim"
	"streams/internal/trace"
)

func main() {
	liveTrace()
	decisionLog()
	simulatedTrace()
}

// liveTrace runs an unbounded pipeline under the elastic dynamic model
// on the actual host and prints each adaptation sample.
func liveTrace() {
	fmt.Printf("live elastic run on this host (%d logical CPUs), 250ms periods:\n", runtime.NumCPU())
	fmt.Printf("  %8s %14s %8s  %s\n", "elapsed", "tuples/s (PE)", "threads", "rule")

	top := streams.NewTopology()
	src := top.Add(&streams.Generator{}, 0, 1)
	prev := src
	for i := 0; i < 8; i++ {
		w := top.Add(&streams.Worker{Cost: 200}, 1, 1)
		top.Connect(prev, 0, w, 0)
		prev = w
	}
	snk := top.Add(&streams.Sink{}, 1, 0)
	top.Connect(prev, 0, snk, 0)

	done := make(chan struct{})
	samples := 0
	job, err := streams.Run(top, streams.RunConfig{
		Model:       streams.ModelDynamic,
		Elastic:     true,
		Threads:     1,
		MaxThreads:  max(runtime.NumCPU(), 4),
		AdaptPeriod: 250 * time.Millisecond,
		Trace: func(s streams.Sample) {
			fmt.Printf("  %8s %14.4g %8d  %s\n", s.Elapsed.Round(time.Millisecond), s.Throughput, s.Level, s.Rule)
			samples++
			if samples == 16 {
				close(done)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	<-done
	job.Stop()
	fmt.Println()
}

// decision is one period of the offline controller drive: the
// throughput observation, the level the controller chose for the next
// period, and the rule that decided it.
type decision struct {
	period int
	thput  float64
	level  int
	rule   elastic.Rule
}

// syntheticThroughput models a concave workload: throughput grows with
// the thread level up to a knee at 12 threads and flattens past it —
// enough shape for the controller to climb, overshoot, and settle.
func syntheticThroughput(level int) float64 {
	if level > 12 {
		level = 12
	}
	return 1e6 * float64(level) / (float64(level) + 2)
}

// driveController runs the elasticity controller for the given number
// of periods against syntheticThroughput, mirroring the PE adaptation
// loop's tracer wiring: a LevelTrace observes every Update, emitting
// one elastic-level event per level change and none otherwise.
func driveController(periods int, tr *trace.Tracer) ([]decision, error) {
	ctl, err := elastic.New(elastic.Config{MinLevel: 1, MaxLevel: 32})
	if err != nil {
		return nil, err
	}
	lt := pe.NewLevelTrace(tr)
	lt.Observe(ctl.Level(), 0)
	log := make([]decision, 0, periods)
	for p := 0; p < periods; p++ {
		thput := syntheticThroughput(ctl.Level())
		level := ctl.Update(thput)
		lt.Observe(level, thput)
		log = append(log, decision{period: p, thput: thput, level: level, rule: ctl.LastRule()})
	}
	return log, nil
}

// decisionLog drives the controller offline with the tracer attached
// and prints the per-period decision log next to the trace it emitted.
func decisionLog() {
	tr := trace.New(1, 0)
	tr.SetLabel(0, "elastic")
	tr.Enable()
	log, err := driveController(24, tr)
	if err != nil {
		panic(err)
	}
	fmt.Println("offline decision log (synthetic concave workload, knee at 12 threads):")
	fmt.Printf("  %6s %12s %7s  %s\n", "period", "tuples/s", "threads", "rule")
	for _, d := range log {
		fmt.Printf("  %6d %12.4g %7d  %s\n", d.period, d.thput, d.level, d.rule)
	}
	events := tr.Snapshot()
	fmt.Printf("tracer captured %d elastic-level events (one per level change):\n", len(events))
	for _, e := range events {
		level, tp := trace.UnpackPair(e.Arg)
		fmt.Printf("  level %2d at throughput %d tuples/s\n", level, tp)
	}
	fmt.Println()
}

// simulatedTrace replays the controller against the Xeon machine model:
// the top-left run of the paper's Figure 11.
func simulatedTrace() {
	panel, _ := fig.FindPanel("fig11-xeon-w1-d1000-cost1")
	fmt.Println("simulated 1400s run of the paper's Figure 11 top-left panel:")
	mo := sim.Model{M: panel.Machine, W: panel.Work}
	trace := sim.RunElastic(mo, sim.ElasticConfig{Seed: 7})
	fmt.Print(fig.TraceTable(panel, trace, 7))
	lo, hi := sim.SettledLevels(trace, 0.25)
	fmt.Printf("settled between %d and %d threads (paper: 72–132)\n", lo, hi)
}

package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"streams/internal/graph"
	"streams/internal/lfq"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/spl"
	"streams/internal/tuple"
	"streams/internal/vm"
	"streams/internal/xport"
)

// Isolated timing loops (source "I" in the README): each calls one
// layer's public functions directly, on the workload's own data, after
// the live run. They give the floor a layer's share of the live cost
// cannot go below, and they move only when that layer's code moves.

// keep defeats dead-code elimination of the measured calls.
var keep uint64

// perOp times n calls of f and returns ns per call.
func perOp(n int, f func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// bestOf repeats a timing loop and keeps the fastest pass: the floor is
// what the loop measures, and interference only ever adds.
func bestOf(passes int, f func() float64) float64 {
	best := 0.0
	for i := 0; i < passes; i++ {
		if v := f(); i == 0 || v < best {
			best = v
		}
	}
	return best
}

// nullSub drops submissions, counting them.
type nullSub struct{ n uint64 }

func (s *nullSub) Submit(tuple.Tuple, int) { s.n++ }

// collectSub keeps submissions, to feed the next operator's loop.
type collectSub struct{ ts []tuple.Tuple }

func (s *collectSub) Submit(t tuple.Tuple, _ int) { s.ts = append(s.ts, t) }

// linkSub hands every submission straight to the next operator.
type linkSub struct {
	next graph.Operator
	out  graph.Submitter
}

func (s *linkSub) Submit(t tuple.Tuple, _ int) { s.next.Process(s.out, t, 0) }

// xportLoops times the frame codec over the schedule's own tuples.
func xportLoops(g *generator, out map[string]float64) {
	const n = 1 << 16
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.NewData(uint64(i), uint64(g.due(uint64(i))), uint64(g.conn), splitmix64(g.seed^uint64(i)))
	}
	frames := make([]byte, n*xport.FrameSize)
	out["xport.encode_ns_per_frame"] = bestOf(5, func() float64 {
		return perOp(n, func(i int) { xport.EncodeFrame(frames[i*xport.FrameSize:], ts[i]) })
	})
	out["xport.decode_ns_per_frame"] = bestOf(5, func() float64 {
		return perOp(n, func(i int) {
			t, err := xport.DecodeFrame(frames[i*xport.FrameSize : (i+1)*xport.FrameSize])
			if err != nil {
				panic(err) // frames were encoded two lines up
			}
			keep += t.Words[0]
		})
	})
}

// lfqLoops times the queues the scheduler is built from.
func lfqLoops(out map[string]float64) {
	const batch = 64
	q := lfq.NewSPSC[tuple.Tuple](batch)
	buf := make([]tuple.Tuple, batch)
	out["lfq.spsc_ns_per_tuple"] = bestOf(5, func() float64 {
		return perOp(1<<14, func(int) {
			q.PushN(buf)
			keep += uint64(q.PopN(buf))
		}) / batch
	})

	m := lfq.NewMPMC[int32](256)
	pair := func(int) {
		var v int32
		m.Push(1)
		m.Pop(&v)
		keep += uint64(v)
	}
	out["lfq.mpmc_ns_per_op"] = bestOf(5, func() float64 { return perOp(1<<19, pair) / 2 })
	out["lfq.mpmc_contended_ns_per_op"] = bestOf(3, func() float64 {
		const n = 1 << 19
		var wg sync.WaitGroup
		t := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var v int32
				for i := 0; i < n; i++ {
					m.Push(1)
					m.Pop(&v)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(t)) / (4 * n) * 2 // two goroutines ran in parallel
	})
}

// opsLoops times the native operator library's floor costs.
func opsLoops(w *fanoutWorkload, out map[string]float64) {
	cost := w.topology().Cost
	out["ops.spin_ns_per_call"] = bestOf(5, func() float64 {
		return perOp(1<<20, func(i int) { keep += uint64(ops.Spin(cost/2, uint64(i))) })
	})
	snk := &ops.Sink{}
	out["ops.sink_ns_per_tuple"] = bestOf(5, func() float64 {
		return perOp(1<<20, func(i int) { snk.Process(nil, tuple.NewData(uint64(i)), 0) })
	})
	out["ops.generator_tps"] = 1e9 / bestOf(3, func() float64 {
		src, sub := w.source(), &nullSub{}
		src.Limit = 1 << 20
		t := time.Now()
		src.Run(sub, nil)
		return float64(time.Since(t)) / float64(sub.n)
	})
}

// metricsLoops times metrics.Histogram and, given exact latency
// samples, sizes its p99 error against them.
func metricsLoops(samples []uint32, out map[string]float64) {
	h := metrics.NewHistogram(1)
	out["metrics.hist_record_ns"] = bestOf(5, func() float64 {
		return perOp(1<<20, func(i int) { h.Record(0, time.Duration(1000+i)) })
	})
	if len(samples) == 0 {
		return
	}
	h = metrics.NewHistogram(1)
	for _, s := range samples {
		h.Record(0, time.Duration(s))
	}
	exact := float64(quantile(samples, 0.99))
	got := float64(h.Snapshot().Quantile(0.99))
	if exact > 0 {
		out["metrics.hist_p99_rel_err"] = abs(got-exact) / exact
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// programOf returns an operator's bytecode program, nil if it has none.
func programOf(op graph.Operator) *vm.Program {
	if p, ok := op.(vm.Programmed); ok {
		return p.VMProgram()
	}
	return nil
}

// splOps finds a compiled SPL graph's first operator named after each
// stream (every @parallel replica shares the stage's name and logic).
func splOps(g *graph.Graph, suffixes ...string) ([]graph.Operator, error) {
	out := make([]graph.Operator, len(suffixes))
	for i, suf := range suffixes {
		for _, n := range g.Nodes {
			if strings.HasSuffix(n.Op.Name(), "/"+suf) {
				out[i] = n.Op
				break
			}
		}
		if out[i] == nil {
			return nil, fmt.Errorf("no operator %q in the compiled graph", suf)
		}
	}
	return out, nil
}

// logicCounts counts an SPL graph's logic operators — those with both
// inputs and outputs, splitters excluded — by whether they compiled to
// bytecode or stayed on the closure evaluator.
func logicCounts(g *graph.Graph) (vmOps, closureOps int) {
	for _, n := range g.Nodes {
		if _, split := n.Op.(*ops.RoundRobinSplit); split || n.NumIn == 0 || n.NumOut == 0 {
			continue
		}
		if programOf(n.Op) != nil {
			vmOps++
		} else {
			closureOps++
		}
	}
	return vmOps, closureOps
}

// discard is the FileSink target of the sink loops.
type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }
func (discard) Close() error                { return nil }

// compileMs is the median time of several compilations.
func compileMs(compile func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 7; i++ {
		t := time.Now()
		if err := compile(); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	return median(ms), nil
}

// sourceLoop runs a source to exhaustion into a null submitter and
// returns ns and allocations per tuple.
func sourceLoop(src graph.Source) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	sub := &nullSub{}
	runtime.ReadMemStats(&m0)
	t := time.Now()
	src.Run(sub, nil)
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(sub.n), float64(m1.Mallocs-m0.Mallocs) / float64(sub.n)
}

// loginsLoops times each spl_logins operator on the workload's lines.
func loginsLoops(w *loginsWorkload, out map[string]float64) error {
	const sample = 50_000
	log := w.log
	if lines := strings.SplitAfterN(log, "\n", sample+1); len(lines) > sample {
		log = strings.Join(lines[:sample], "")
	}
	compile := func() (*spl.Compiled, error) {
		return spl.Compile(loginsProgram, spl.Options{
			ReaderFor: func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(log)), nil },
			WriterFor: func(string) (io.WriteCloser, error) { return discard{}, nil },
		})
	}
	ms, err := compileMs(func() error { _, err := compile(); return err })
	if err != nil {
		return err
	}
	out["spl.compile_ms"] = ms
	c, err := compile()
	if err != nil {
		return err
	}
	vmOps, closureOps := logicCounts(c.Graph)
	out["spl.vm_ops"], out["spl.closure_ops"] = float64(vmOps), float64(closureOps)

	stage, err := splOps(c.Graph, "Lines", "ParsedLines", "FailuresRaw", "Failures")
	if err != nil {
		return err
	}
	out["spl.source_ns_per_tuple"], out["spl.source_allocs_per_tuple"] = sourceLoop(stage[0].(graph.Source))

	// Feed each stage the previous stage's real output.
	lines := &collectSub{}
	stage[0].(graph.Source).Run(lines, nil)
	in := lines.ts
	for i, name := range []string{"spl.parse_ns_per_line", "spl.filter_ns_per_tuple", "spl.extract_ns_per_tuple"} {
		op, next := stage[i+1], &collectSub{}
		for _, t := range in {
			op.Process(next, t, 0)
		}
		out[name] = bestOf(3, func() float64 {
			sub := &nullSub{}
			return perOp(len(in), func(j int) { op.Process(sub, in[j], 0) })
		})
		in = next.ts
	}
	sink := c.Sinks["Sink"]
	out["spl.sink_ns_per_tuple"] = perOp(len(in), func(j int) { sink.Process(nil, in[j], 0) })
	sink.Finish(nil)
	return sink.Err()
}

// chainLoops times spl_chain's stages: the compiler, the source and
// sink, the closure form of the chain and the fused program on both VM
// dispatch forms.
func chainLoops(w *chainWorkload, out map[string]float64) error {
	const rows = 64
	small := *w
	small.iterations = 200_000
	small.src = chainProgram(small.iterations, w.residue)

	ms, err := compileMs(func() error { _, err := small.compile(spl.Options{}, discard{}); return err })
	if err != nil {
		return err
	}
	out["spl.compile_ms"] = ms
	c, err := small.compile(spl.Options{}, discard{})
	if err != nil {
		return err
	}
	vmOps, closureOps := logicCounts(c.Graph)
	out["spl.vm_ops"], out["spl.closure_ops"] = float64(vmOps), float64(closureOps)

	names := []string{"N", "S1", "S2", "S3", "Kept"}
	stage, err := splOps(c.Graph, names...)
	if err != nil {
		return err
	}
	out["spl.source_ns_per_tuple"], out["spl.source_allocs_per_tuple"] = sourceLoop(stage[0].(graph.Source))

	src := &collectSub{}
	stage[0].(graph.Source).Run(src, nil)
	in := src.ts

	// The fused program: scalar dispatch and vectorized dispatch over
	// 64-row batches of the Beacon's own tuples.
	var progs []*vm.Program
	for i, op := range stage[1:] {
		p := programOf(op)
		if p == nil {
			return fmt.Errorf("spl_chain operator %s did not compile to bytecode", names[i+1])
		}
		progs = append(progs, p)
	}
	fused, err := vm.Fuse(progs)
	if err != nil {
		return err
	}
	vp, err := vm.PlanVec(fused)
	if err != nil {
		return fmt.Errorf("spl_chain's fused program is not vectorizable: %w", err)
	}
	var kept collectSub
	emit := vm.EmitFunc(func(t tuple.Tuple) { kept.ts = append(kept.ts, t) })
	count := vm.EmitFunc(func(tuple.Tuple) { keep++ })
	var m vm.Machine
	for _, t := range in {
		m.Run(fused, t, emit)
	}
	batches := len(in) / rows
	out["vm.scalar_ns_per_tuple"] = bestOf(3, func() float64 {
		m.Reset(fused)
		return perOp(batches*rows, func(j int) { m.Run(fused, in[j], count) })
	})
	var bm vm.BatchMachine
	out["vm.vec_ns_per_row"] = bestOf(3, func() float64 {
		return perOp(batches, func(b int) {
			bm.Reset(vp)
			bm.Run(in[b*rows : (b+1)*rows])
			bm.EmitRows(count)
		}) / rows
	})

	// The same logic on the closure evaluator, linked Process to Process.
	nv, err := small.compile(spl.Options{NoVM: true}, discard{})
	if err != nil {
		return err
	}
	cl, err := splOps(nv.Graph, names[1:]...)
	if err != nil {
		return err
	}
	out["spl.chain_closure_ns_per_tuple"] = bestOf(3, func() float64 {
		var link graph.Submitter = &nullSub{}
		for i := len(cl) - 1; i > 0; i-- {
			link = &linkSub{next: cl[i], out: link}
		}
		return perOp(len(in), func(j int) { cl[0].Process(link, in[j], 0) })
	})

	sink := c.Sinks["Out"]
	out["spl.sink_ns_per_tuple"] = perOp(len(kept.ts), func(j int) { sink.Process(nil, kept.ts[j], 0) })
	sink.Finish(nil)
	return sink.Err()
}

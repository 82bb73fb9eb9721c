// Command benchmark is the repository's performance ledger: five
// workloads measured end to end, untraced, plus a traced pass that
// divides the cost between the layers. See README.md.
//
//	bash benchmark/run.sh --workload spl_chain --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"streams/internal/pe"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	notes []string
}

// sizes are the per-trial input sizes of the closed workloads and the
// open-loop warm-up; -quick shrinks them so every workload takes about
// a second through the same code paths.
type sizes struct {
	loginLines, chainIters int
	fanoutLimit            uint64
	warmup                 time.Duration
	minTrials              int
	ceiling                time.Duration
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{loginLines: 20_000, chainIters: 100_000, fanoutLimit: 200_000, warmup: 250 * time.Millisecond, minTrials: 2, ceiling: 300 * time.Millisecond}
	}
	return sizes{loginLines: 150_000, chainIters: 600_000, fanoutLimit: 1_600_000, warmup: openWarmup, minTrials: 3, ceiling: 3 * time.Second}
}

// run executes one workload in one mode and assembles the report.
func run(o options) (*report, error) {
	sz := sizesFor(o.quick)
	budget := time.Duration(o.seconds * float64(time.Second))
	values := map[string]float64{}
	rep := &report{}

	var closed closedWorkload
	var open *ingestWorkload
	switch o.workload {
	case wlLogins:
		closed = newLoginsWorkload(o.seed, sz.loginLines)
	case wlChain:
		closed = newChainWorkload(o.seed, sz.chainIters)
	case wlFanout:
		closed = newFanoutWorkload(o.seed, sz.fanoutLimit)
	case wlPaced:
		open = pacedWorkload(o.seed)
	case wlOverload:
		open = overloadWorkload(o.seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}

	switch {
	case closed != nil && !o.trace:
		res, err := runClosed(closed, pe.Dynamic, budget, sz.minTrials, nil)
		if err != nil {
			return nil, err
		}
		values = res.summary()
		rep.Attempted, rep.Failed = res.inputs*uint64(len(res.trials)), res.failed()

	case closed != nil:
		kit := newTraceKit(o.out, o.workload)
		plain, traced, manual, gcFrac, err := traceClosed(closed, budget, sz.minTrials, kit)
		if err != nil {
			return nil, err
		}
		if rep.notes, err = kit.files(kit.spans); err != nil {
			return nil, err
		}
		closedLayerMetrics(plain, traced, manual, kit, gcFrac, values)
		if err := closedLoops(closed, values); err != nil {
			return nil, err
		}
		n := len(plain.trials) + len(traced.trials) + len(manual.trials)
		rep.Attempted, rep.Failed = plain.inputs*uint64(n), plain.failed()+traced.failed()+manual.failed()

	case !o.trace:
		res, err := runOpen(open, budget, sz.warmup, setupProbes, nil)
		if err != nil {
			return nil, err
		}
		values = res.summary()
		rep.Attempted, rep.Failed, rep.notes = res.owed, res.failed, res.notes

	default:
		kit := newTraceKit(o.out, o.workload)
		plain, traced, wf, err := traceOpen(open, budget, sz, kit, values)
		if err != nil {
			return nil, err
		}
		if rep.notes, err = kit.files(wf.spans); err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = plain.owed+traced.owed, plain.failed+traced.failed
		rep.notes = append(append(rep.notes, plain.notes...), traced.notes...)
	}

	rep.Correct = rep.Failed == 0
	rep.Metrics = map[string]metricValue{}
	if o.trace {
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	}
	return rep, nil
}

// closedLoops runs the isolated loops that use a closed workload's data.
func closedLoops(w closedWorkload, out map[string]float64) error {
	metricsLoops(nil, out)
	switch w := w.(type) {
	case *loginsWorkload:
		return loginsLoops(w, out)
	case *chainWorkload:
		return chainLoops(w, out)
	case *fanoutWorkload:
		lfqLoops(out)
		opsLoops(w, out)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// could see one (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func parseArgs(args []string) (options, bool, error) {
	var o options
	var trace string
	var printManifest bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: spl_logins, spl_chain, fanout_hop, ingest_paced, ingest_overload")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", manifestRunSeconds, "measuring time")
	fs.StringVar(&trace, "trace", "0", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "shrink every workload to about a second (same code paths; numbers not comparable)")
	fs.StringVar(&o.out, "out", ".bench_build/trace", "directory for the traced pass's trace_event files")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return o, false, err
	}
	t, err := strconv.ParseBool(trace)
	if err != nil {
		return o, false, fmt.Errorf("-trace %q: want 0 or 1", trace)
	}
	o.trace = t
	if o.quick {
		o.seconds = min(o.seconds, 1)
	}
	if !printManifest && o.seconds < 1 {
		return o, false, errors.New("-seconds must be at least 1")
	}
	return o, printManifest, nil
}

func main() {
	maybeGenerator()
	o, printManifest, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if printManifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(theManifest()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	fmt.Printf("# streams benchmark: workload=%s seed=%d seconds=%g trace=%t quick=%t\n", o.workload, o.seed, o.seconds, o.trace, o.quick)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	if o.quick {
		fmt.Println("# quick mode: these numbers are not comparable with a full run")
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	os.Exit(rep.exitCode())
}

// exitCode is 0 for a run whose every oracle passed and 1 for one that
// lost, duplicated, reordered or miscomputed a tuple.
func (r *report) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

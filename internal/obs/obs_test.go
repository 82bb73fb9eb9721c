package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"streams/internal/fault"
	"streams/internal/graph"
	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/sched"
	"streams/internal/trace"
)

// testEdges is a two-edge pipeline topology for the synthetic-window
// attribution tests: Src →(port 0)→ W →(port 1)→ Snk.
var testEdges = []sched.Edge{
	{Port: 0, From: "Src", To: "W", ToNode: 1, Cap: 64},
	{Port: 1, From: "W", To: "Snk", ToNode: 2, Cap: 64},
}

// synthWindow builds an n-sample window spaced 100ms apart with the
// given per-sample mutator applied after the defaults.
func synthWindow(n int, mut func(i int, s *Sample)) []Sample {
	base := time.Unix(1000, 0)
	w := make([]Sample, n)
	for i := range w {
		w[i] = Sample{
			At:        base.Add(time.Duration(i) * 100 * time.Millisecond),
			Depth:     []int{0, 0},
			Resched:   []uint64{0, 0},
			BlockedNs: []uint64{0, 0},
			NodeExec:  []uint64{0, 0, 0},
		}
		if mut != nil {
			mut(i, &w[i])
		}
	}
	return w
}

func TestAttributeEmptyAndQuiet(t *testing.T) {
	if r := Attribute(testEdges, nil); r.Cause != CauseNone {
		t.Errorf("nil window: cause %q, want none", r.Cause)
	}
	if r := Attribute(nil, synthWindow(5, nil)); r.Cause != CauseNone {
		t.Errorf("no edges: cause %q, want none", r.Cause)
	}
	if r := Attribute(testEdges, synthWindow(1, nil)); r.Cause != CauseNone {
		t.Errorf("one sample: cause %q, want none", r.Cause)
	}
	// Queues near-empty and no blocked time: below both thresholds.
	quiet := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{2, 1}
	})
	if r := Attribute(testEdges, quiet); r.Cause != CauseNone {
		t.Errorf("quiet window: cause %q (%s), want none", r.Cause, r.Detail)
	}
}

func TestAttributeConsumerSlow(t *testing.T) {
	// Edge 0 (into W) sits at 75% fill with heavy producer blocked time;
	// edge 1 stays empty. No faults, no ingest, no hard contention.
	w := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{48, 1}
		s.BlockedNs = []uint64{uint64(i) * uint64(50*time.Millisecond), 0}
		s.Executed = uint64(i) * 1000
	})
	r := Attribute(testEdges, w)
	if r.Cause != CauseConsumerSlow || r.Bottleneck != "W" || r.Port != 0 || r.Node != 1 {
		t.Fatalf("got %+v, want consumer-slow at W/port 0", r)
	}
	if r.MeanFill < 0.70 || r.MeanFill > 0.80 {
		t.Errorf("mean fill %v, want ~0.75", r.MeanFill)
	}
	if !strings.Contains(r.Detail, "Src→W") || !strings.Contains(r.Detail, "consumer-slow") {
		t.Errorf("detail %q missing edge or cause", r.Detail)
	}
}

func TestAttributeQuarantine(t *testing.T) {
	w := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{60, 0}
		s.Executed = uint64(i) * 1000
	})
	w[len(w)-1].Quarantined = []int{1} // W's node ID
	r := Attribute(testEdges, w)
	if r.Cause != CauseQuarantine || r.Bottleneck != "W" {
		t.Fatalf("got %+v, want quarantine at W", r)
	}
}

func TestAttributeIngestShed(t *testing.T) {
	w := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{60, 0}
		s.Executed = uint64(i) * 1000
		s.Ingest = &ingest.Snapshot{
			Totals:     metrics.IngestSnapshot{Shed: uint64(i) * 10},
			Overloaded: i == 3,
		}
	})
	r := Attribute(testEdges, w)
	if r.Cause != CauseIngestShed {
		t.Fatalf("got %+v, want ingest-shed", r)
	}
	// No shed delta and never overloaded: falls back to consumer-slow.
	w2 := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{60, 0}
		s.Executed = uint64(i) * 1000
		s.Ingest = &ingest.Snapshot{Totals: metrics.IngestSnapshot{Shed: 42}}
	})
	if r := Attribute(testEdges, w2); r.Cause != CauseConsumerSlow {
		t.Fatalf("steady shed total: got %+v, want consumer-slow", r)
	}
}

func TestAttributeFreeListPressure(t *testing.T) {
	// Over 1.0 hard contention events per executed tuple — far past the
	// 0.25 threshold — while steal traffic stays excluded.
	w := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{60, 0}
		s.Executed = uint64(i) * 1000
		s.Sched.Contention = metrics.ContentionSnapshot{
			PushFail: uint64(i) * 600, PopFail: uint64(i) * 600,
			Steal: uint64(i) * 100000, StealMiss: uint64(i) * 100000,
		}
	})
	r := Attribute(testEdges, w)
	if r.Cause != CauseFreeList {
		t.Fatalf("got %+v, want free-list-pressure", r)
	}
	// Steals alone, however many, never count as hard contention.
	w2 := synthWindow(5, func(i int, s *Sample) {
		s.Depth = []int{60, 0}
		s.Executed = uint64(i) * 1000
		s.Sched.Contention = metrics.ContentionSnapshot{
			Steal: uint64(i) * 100000, StealMiss: uint64(i) * 100000,
		}
	})
	if r := Attribute(testEdges, w2); r.Cause != CauseConsumerSlow {
		t.Fatalf("steal-only contention: got %+v, want consumer-slow", r)
	}
}

// buildSkewedPE runs an open-loop pipeline with one deliberately slow
// stage: Src → Fast → Slow → Fast2 → Snk. Fast's stream also feeds a
// tap sink, which makes the Fast→Slow edge statically unchainable
// (graph.InPort.Chainable): Slow never runs inline under Fast's drain,
// so that edge's queue carries the real occupancy and back-pressure
// signal.
func buildSkewedPE(t testing.TB, slowCost int) *pe.PE {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{}, 0, 1)
	f1 := b.AddNode(&ops.Worker{OpName: "Fast", Cost: 1}, 1, 1)
	b.Connect(src, 0, f1, 0)
	slow := b.AddNode(&ops.Worker{OpName: "Slow", Cost: slowCost}, 1, 1)
	b.Connect(f1, 0, slow, 0)
	b.Connect(f1, 0, b.AddNode(&ops.Sink{OpName: "Tap"}, 1, 0), 0)
	f2 := b.AddNode(&ops.Worker{OpName: "Fast2", Cost: 1}, 1, 1)
	b.Connect(slow, 0, f2, 0)
	sn := b.AddNode(&ops.Sink{}, 1, 0)
	b.Connect(f2, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pe.New(g, pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

// TestAttributeSkewedPipeline is the acceptance property: on a live
// pipeline with one operator ~1000x more expensive than its peers, the
// report must name that operator with cause consumer-slow.
func TestAttributeSkewedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("live pipeline run")
	}
	p := buildSkewedPE(t, 20000)
	c := New(Options{PE: p, Period: 20 * time.Millisecond, Workload: "skewed"})
	for i := 0; i < 12; i++ {
		time.Sleep(20 * time.Millisecond)
		c.SampleNow()
	}
	r := Attribute(c.Edges(), c.Window())
	t.Logf("report: %s", r.Detail)
	if r.Bottleneck != "Slow" {
		t.Fatalf("bottleneck %q (%s), want Slow", r.Bottleneck, r.Detail)
	}
	if r.Cause != CauseConsumerSlow {
		t.Fatalf("cause %q (%s), want consumer-slow", r.Cause, r.Detail)
	}
	fs := c.Snapshot()
	if fs.Report.Bottleneck != "Slow" {
		t.Errorf("snapshot report bottleneck %q, want Slow", fs.Report.Bottleneck)
	}
	var sb strings.Builder
	fs.WriteText(&sb)
	if !strings.Contains(sb.String(), "bottleneck: Slow") {
		t.Errorf("panel missing bottleneck line:\n%s", sb.String())
	}
}

func TestCollectorWindowRing(t *testing.T) {
	p := buildSkewedPE(t, 1)
	c := New(Options{PE: p, Window: 4, Workload: "ring"})
	for i := 0; i < 7; i++ {
		c.SampleNow()
	}
	w := c.Window()
	if len(w) != 4 {
		t.Fatalf("window length %d, want 4 (ring capacity)", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i].Elapsed <= 0 || w[i].Elapsed < w[i-1].Elapsed {
			t.Fatalf("window not oldest-first: %v then %v", w[i-1].Elapsed, w[i].Elapsed)
		}
	}
	if len(w[0].Depth) != len(c.Edges()) {
		t.Errorf("depth slice %d entries, want one per edge (%d)", len(w[0].Depth), len(c.Edges()))
	}
}

func TestCollectorStartStop(t *testing.T) {
	p := buildSkewedPE(t, 1)
	c := New(Options{PE: p, Period: 5 * time.Millisecond})
	c.Start()
	c.Start() // idempotent
	time.Sleep(30 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	if len(c.Window()) == 0 {
		t.Fatal("background sampler took no samples")
	}
}

// liveExposition renders /metricz for a running pipeline with latency
// and an ingest front end attached, so every family is present.
func liveExposition(t testing.TB) []byte {
	t.Helper()
	p := buildSkewedPE(t, 1)
	lat := metrics.NewHistogram(2)
	lat.Record(0, time.Millisecond)
	ing, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{{Name: "gold", Policy: ingest.Block}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	c := New(Options{PE: p, Latency: lat, Ingest: ing, Workload: "metricz"})
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	p.Stop() // the pipeline is unbounded; stop it before a fuzz run
	return buf.Bytes()
}

func TestWriteMetricsParses(t *testing.T) {
	out := liveExposition(t)
	fams, err := ParseExposition(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, out)
	}
	for _, want := range []string{
		"streams_executed", "streams_sink_delivered", "streams_contention",
		"streams_faults", "streams_backlog", "streams_edge_depth",
		"streams_edge_resched", "streams_edge_blocked_seconds",
		"streams_latency_seconds", "streams_ingest", "streams_tenant",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %q missing from exposition", want)
		}
	}
	// Every meter of every bundle snapshot is a sample of its family: a
	// field added to a snapshot that a presenter does not render fails
	// here instead of staying invisible to scrapers.
	for fam, snap := range map[string]any{
		"streams_contention": metrics.ContentionSnapshot{},
		"streams_faults":     metrics.FaultsSnapshot{},
		"streams_chain":      metrics.ChainSnapshot{},
		"streams_vm":         metrics.VMSnapshot{},
		"streams_ingest":     metrics.IngestSnapshot{},
	} {
		rt := reflect.TypeOf(snap)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			pattern := fmt.Sprintf("%s_total{kind=%q} ", fam, f.Tag.Get("json"))
			switch g := f.Tag.Get("group"); {
			case g != "":
				pattern = fmt.Sprintf("%s_%s_total{kind=%q} ", fam, g, f.Tag.Get("json"))
			case fam == "streams_ingest":
				pattern = fmt.Sprintf("%s_total{disposition=%q} ", fam, f.Tag.Get("json"))
			}
			if !bytes.Contains(out, []byte(pattern)) {
				t.Errorf("%s.%s has no /metricz sample %s", rt.Name(), f.Name, pattern)
			}
		}
	}
}

// FuzzParseExposition: the strict parser returns families or an error
// for any input and never panics, and it accepts every exposition
// WriteMetrics produces (the live seed). The malformed inputs the
// parser must reject seed the corpus too.
func FuzzParseExposition(f *testing.F) {
	live := liveExposition(f)
	if _, err := ParseExposition(bytes.NewReader(live)); err != nil {
		f.Fatalf("live exposition rejected: %v", err)
	}
	f.Add(live)
	for _, seed := range badExpositions {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseExposition(bytes.NewReader(data))
		if (err == nil) == (fams == nil) {
			t.Fatalf("ParseExposition returned families %v and error %v", fams, err)
		}
	})
}

// badExpositions are malformed inputs the strict parser must reject.
var badExpositions = map[string]string{
	"no EOF":          "# TYPE a counter\na_total 1\n",
	"blank line":      "# TYPE a counter\n\na_total 1\n# EOF\n",
	"after EOF":       "# TYPE a counter\na_total 1\n# EOF\na_total 2\n",
	"bare counter":    "# TYPE a counter\na 1\n# EOF\n",
	"bad value":       "# TYPE a gauge\na x\n# EOF\n",
	"dup TYPE":        "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n",
	"unknown type":    "# TYPE a widget\na 1\n# EOF\n",
	"unclosed label":  "# TYPE a gauge\na{x=\"1 2\n# EOF\n",
	"undeclared name": "# TYPE a gauge\nb 1\n# EOF\n",
}

func TestParseExpositionRejects(t *testing.T) {
	for label, body := range badExpositions {
		if _, err := ParseExposition(strings.NewReader(body)); err == nil {
			t.Errorf("%s: parser accepted malformed exposition", label)
		}
	}
}

func TestRecorderDumpAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fr.json")
	tr := trace.New(1, 16)
	tr.Enable()
	tr.Emit(0, trace.KindBPSample, trace.PackPair(0, 3))
	r := &Recorder{Path: path, Tracer: tr, MinGap: time.Hour}
	w := synthWindow(3, nil)

	buf := r.Trigger("manual", w)
	if buf == nil {
		t.Fatal("first trigger rate-limited")
	}
	var d Dump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Reason != "manual" || d.Seq != 1 || len(d.Samples) != 3 || len(d.Trace) == 0 {
		t.Fatalf("dump = reason %q seq %d samples %d trace %d", d.Reason, d.Seq, len(d.Samples), len(d.Trace))
	}
	if d.Goroutines != "" {
		t.Error("manual dump captured goroutines, want stuck-thread reasons only")
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, buf) {
		t.Fatalf("file dump mismatch (err %v)", err)
	}
	if got := r.Trigger("manual", w); got != nil {
		t.Fatal("second trigger inside MinGap not rate-limited")
	}
	last, n := r.LastDump()
	if n != 1 || !bytes.Equal(last, buf) {
		t.Fatalf("LastDump = %d dumps", n)
	}
}

func TestRecorderGoroutinesOnStuckReasons(t *testing.T) {
	r := &Recorder{MinGap: time.Nanosecond}
	buf := r.Trigger("watchdog", synthWindow(2, nil))
	var d Dump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Goroutines, "goroutine") {
		t.Error("watchdog dump has no goroutine stacks")
	}
}

// TestChaosFlightRecorder is the chaos acceptance path: injected panics
// drive a real quarantine, and the collector's delta trigger must fire
// a non-empty dump naming the quarantine reason. The dump file lands in
// FLIGHTREC_DIR when set (CI uploads it as an artifact on failure).
func TestChaosFlightRecorder(t *testing.T) {
	dir := os.Getenv("FLIGHTREC_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	path := filepath.Join(dir, "flightrec-chaos.json")

	const n = 10000
	inj := fault.New(fault.Config{Seed: 7, PanicRate: 0.01})
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: n}, 0, 1)
	w := b.AddNode(&ops.Worker{OpName: "W", Cost: 25}, 1, 1)
	b.Connect(src, 0, w, 0)
	sn := b.AddNode(&ops.Sink{}, 1, 0)
	b.Connect(w, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pe.New(g, pe.Config{
		Model: pe.Dynamic, Threads: 2, MaxThreads: 2,
		Fault: inj, QuarantineAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{Path: path, MinGap: time.Millisecond}
	c := New(Options{PE: p, Period: time.Millisecond, Recorder: rec, Workload: "chaos"})
	c.Start()
	defer c.Stop()
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitTimeout(60 * time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	p.Stop()
	c.Stop()
	if p.FaultStats().Quarantines == 0 {
		t.Skip("no quarantine at this seed/rate; nothing to record")
	}
	// The quarantine may land between ticks of the stopped sampler; one
	// explicit sample picks up the delta deterministically.
	c.SampleNow()
	buf, dumps := rec.LastDump()
	if dumps == 0 || len(buf) == 0 {
		t.Fatal("quarantine fired but the flight recorder dumped nothing")
	}
	var d Dump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Reason != "quarantine" || len(d.Samples) == 0 {
		t.Fatalf("dump reason %q with %d samples, want quarantine with samples", d.Reason, len(d.Samples))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("dump file %s missing or empty (err %v)", path, err)
	}
	t.Logf("flight recorder: %d dump(s), last %d bytes, %d samples", dumps, len(buf), len(d.Samples))
}

// TestCollectorManualTrigger covers the /debugz/flightrec?dump=now and
// shutdown-deadline paths: an explicit Trigger works even before any
// periodic sample has been taken.
func TestCollectorManualTrigger(t *testing.T) {
	p := buildSkewedPE(t, 1)
	rec := &Recorder{MinGap: time.Nanosecond}
	c := New(Options{PE: p, Recorder: rec, Workload: "manual"})
	c.Trigger("shutdown-deadline")
	buf, n := rec.LastDump()
	if n != 1 || buf == nil {
		t.Fatalf("manual trigger produced %d dumps", n)
	}
	var d Dump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "shutdown-deadline" || len(d.Samples) == 0 {
		t.Fatalf("dump reason %q with %d samples", d.Reason, len(d.Samples))
	}
	if d.Goroutines == "" {
		t.Error("shutdown-deadline dump missing goroutine stacks")
	}
	c.Trigger("not-a-reason")
	if _, n := rec.LastDump(); n != 2 {
		t.Fatalf("unknown reason did not dump as manual: %d dumps", n)
	}
}

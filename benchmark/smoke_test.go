package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself as the load generator.
func TestMain(m *testing.M) {
	maybeGenerator()
	os.Exit(m.Run())
}

// TestManifestMatchesCatalog pins BENCHMARK.json to the catalog the
// program emits from, and the catalog to the contract's limits.
func TestManifestMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := theManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with: go run -C benchmark . -manifest > BENCHMARK.json")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}

// TestSmoke runs every workload in both passes in -quick mode: the same
// code paths as a full run in about a second each. It asserts that the
// names emitted are exactly the catalog's, that every run is correct,
// that the layer metrics sit on the workloads that exercise the layer,
// and that the span waterfall closes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	out := t.TempDir()
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(options{workload: w.Name, seed: 1, seconds: 1, trace: trace, quick: true, out: out})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			offSchedule := raceBuild && (w.Name == wlPaced || w.Name == wlOverload)
			if (!rep.Correct || rep.Failed != 0 || rep.Attempted == 0) && !offSchedule {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d %v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.notes)
			}
			want := map[string]string{}
			if trace {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range endToEnd {
					want[m.Name] = m.Unit
				}
			}
			vals := map[string]float64{}
			for n, v := range rep.Metrics {
				if want[n] != v.Unit {
					t.Errorf("%s trace=%t: emitted %s in %q, catalog has %q", w.Name, trace, n, v.Unit, want[n])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%t: %s = %v", w.Name, trace, n, v.Value)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, n, v.Value)
				}
				vals[n] = v.Value
				delete(want, n)
			}
			for n := range want {
				t.Errorf("%s trace=%t: catalog metric %s was not emitted", w.Name, trace, n)
			}
			if trace {
				layers[w.Name] = vals
			}
		}
	}

	// Layer metrics sit where the layer is exercised and read 0 where it
	// is bypassed.
	for _, c := range []struct {
		workload, metric string
		positive         bool
	}{
		{wlLogins, "spl.closure_ops", true},
		{wlLogins, "spl.parse_ns_per_line", true},
		{wlChain, "spl.closure_ops", false},
		{wlChain, "spl.vm_ops", true},
		{wlChain, "vm.fused_frac", true},
		{wlChain, "vm.vec_ns_per_row", true},
		{wlFanout, "vm.fused_frac", false},
		{wlFanout, "vm.vec_frac", false},
		{wlFanout, "vm.fallback_per_ktuple", false},
		{wlFanout, "lfq.spsc_ns_per_tuple", true},
		{wlFanout, "sched.transit_us_p50", true},
		{wlFanout, "ingest.admitted_frac", false},
		{wlChain, "ingest.door_us_p50", false},
		{wlLogins, "ingest.ceiling_tps", false},
		{wlPaced, "ingest.door_us_p50", true},
		{wlPaced, "ingest.ceiling_tps", true},
		{wlPaced, "xport.decode_ns_per_frame", true},
		{wlPaced, "ingest.throttled_frac", false},
		{wlOverload, "ingest.throttled_frac", true},
		{wlOverload, "ingest.bronze_p50_ms", true},
	} {
		if v := layers[c.workload][c.metric]; (v > 0) != c.positive {
			t.Errorf("%s: %s = %v, want positive: %t", c.workload, c.metric, v, c.positive)
		}
	}
	for _, w := range workloads {
		if _, ok := layers[w.Name]["trace.overhead_frac"]; !ok {
			t.Errorf("%s: no trace.overhead_frac", w.Name)
		}
	}

	for _, w := range []string{wlPaced, wlOverload} {
		checkWaterfall(t, filepath.Join(out, w+".spans.json"))
	}
}

// checkWaterfall reads a span file and asserts that every sampled
// tuple's child spans tile its parent span: the self-times sum to the
// end-to-end latency within 10%.
func checkWaterfall(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
			Args struct {
				Tuple  uint64
				Parent string
			}
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	type sums struct{ parent, children float64 }
	tuples := map[string]*sums{}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || !nameRE.MatchString(e.Name) {
			t.Fatalf("%s: malformed span %+v", path, e)
		}
		k := fmt.Sprintf("%d/%d", e.Tid, e.Args.Tuple)
		if tuples[k] == nil {
			tuples[k] = &sums{}
		}
		if e.Args.Parent == "" {
			tuples[k].parent += e.Dur
		} else {
			tuples[k].children += e.Dur
		}
	}
	if len(tuples) < 10 {
		t.Fatalf("%s: only %d sampled tuples", path, len(tuples))
	}
	var parent, children float64
	for k, s := range tuples {
		if math.Abs(s.children-s.parent) > 0.1*s.parent+0.01 {
			t.Errorf("%s: tuple %s: spans sum to %.3f us, end-to-end latency %.3f us", path, k, s.children, s.parent)
		}
		parent += s.parent
		children += s.children
	}
	if math.Abs(children-parent) > 0.1*parent {
		t.Errorf("%s: self-times sum to %.0f us, end-to-end %.0f us", path, children, parent)
	}
}

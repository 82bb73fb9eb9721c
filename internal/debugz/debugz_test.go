package debugz

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"streams/internal/graph"
	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/obs"
	"streams/internal/ops"
	"streams/internal/pe"
	"streams/internal/trace"
)

// buildPE runs a small pipeline to completion under the dynamic model
// with tracing and latency measurement armed, and returns the finished
// (but not yet stopped) PE plus its instruments.
func buildPE(t *testing.T) (*pe.PE, *trace.Tracer, *metrics.Histogram) {
	t.Helper()
	b := graph.NewBuilder()
	src := b.AddNode(&ops.Generator{Limit: 2000}, 0, 1)
	w := b.AddNode(&ops.Worker{}, 1, 1)
	b.Connect(src, 0, w, 0)
	sn := b.AddNode(&ops.Sink{}, 1, 0)
	b.Connect(w, 0, sn, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := pe.Config{Model: pe.Dynamic, Threads: 2, MaxThreads: 2}
	rings := pe.TraceRings(cfg, g)
	tr := trace.New(rings, 0)
	tr.Enable()
	lat := metrics.NewHistogram(rings)
	cfg.Tracer = tr
	cfg.Latency = lat
	p, err := pe.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	t.Cleanup(p.Stop)
	return p, tr, lat
}

func TestEndpoints(t *testing.T) {
	p, tr, lat := buildPE(t)
	srv, err := Serve("127.0.0.1:0", Options{
		PE: p, Tracer: tr, Latency: lat, Workload: "pipeline d=1 n=2000",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// /debugz/stats: live JSON with latency quantiles (the acceptance
	// check: p50/p99 while the process runs).
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/debugz/stats")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Model != "dynamic" || snap.Executed == 0 {
		t.Fatalf("stats snapshot: model=%q executed=%d", snap.Model, snap.Executed)
	}
	if snap.Latency == nil || snap.Latency.Count != 2000 || snap.Latency.P50Ns <= 0 || snap.Latency.P99Ns < snap.Latency.P50Ns {
		t.Fatalf("latency summary: %+v", snap.Latency)
	}
	if snap.TraceKinds["acquire"] == 0 {
		t.Fatalf("trace kinds: %v", snap.TraceKinds)
	}

	// /debugz: the text panel renders from the same snapshot.
	text := get("/debugz")
	for _, want := range []string{"workload: pipeline", "model dynamic", "latency: n=2000", "free list:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text panel missing %q:\n%s", want, text)
		}
	}

	// /debugz/trace: a loadable trace_event document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/debugz/trace")), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace export")
	}

	// /debug/pprof is mounted.
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("pprof index not served")
	}
}

func TestCollectWithoutInstruments(t *testing.T) {
	// Every Options field is optional; Collect and WriteText must not
	// panic on an empty run.
	var sb strings.Builder
	Collect(Options{}).WriteText(&sb)
	if !strings.Contains(sb.String(), "scheduler:") {
		t.Fatalf("panel: %q", sb.String())
	}
}

func TestTraceEndpointWithoutTracer(t *testing.T) {
	h := Handler(Options{})
	req := httptest.NewRequest("GET", "/debugz/trace", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rw.Code)
	}
}

func TestWriteTextChainLine(t *testing.T) {
	// The chain meters render their own panel line when inline chain
	// execution fired, and stay silent otherwise (dedicated/manual runs
	// and graphs without a chainable port never meter a chain).
	var with strings.Builder
	s := Snapshot{Model: "dynamic"}
	s.Sched.Chain = metrics.ChainSnapshot{Starts: 3, Links: 12, Tuples: 384, DepthStops: 2, Occupied: 1}
	s.WriteText(&with)
	if !strings.Contains(with.String(), "chain: starts 3, links 12, tuples 384, depth_stops 2, budget_stops 0, lock_misses 0, occupied 1") {
		t.Fatalf("panel missing chain line:\n%s", with.String())
	}
	var without strings.Builder
	Snapshot{Model: "dynamic"}.WriteText(&without)
	if strings.Contains(without.String(), "chain:") {
		t.Fatalf("panel shows chain line with zero meters:\n%s", without.String())
	}
}

func TestTenantsEndpoint(t *testing.T) {
	// A live ingest front end renders its admission panel on /debugz,
	// serves /debugz/tenants in both formats, and 404s when absent.
	ing, err := ingest.NewServer(ingest.Config{
		Tenants: []ingest.TenantConfig{
			{Name: "gold", Rate: 1000, Burst: 32, Policy: ingest.Block, Guaranteed: true},
			{Name: "bronze", Policy: ingest.ShedOldest, QueueCap: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	h := Handler(Options{Ingest: ing})

	get := func(path string, wantCode int) string {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, rw.Code, wantCode)
		}
		return rw.Body.String()
	}

	text := get("/debugz/tenants", http.StatusOK)
	for _, want := range []string{"ingest: admitted 0", "tenant gold (guaranteed, block)", "tenant bronze (besteffort, shed-oldest)", "queue 0/64"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tenants panel missing %q:\n%s", want, text)
		}
	}
	var sn ingest.Snapshot
	if err := json.Unmarshal([]byte(get("/debugz/tenants?format=json", http.StatusOK)), &sn); err != nil {
		t.Fatal(err)
	}
	if len(sn.Tenants) != 2 || sn.Tenants[0].Name != "gold" {
		t.Fatalf("tenants JSON: %+v", sn)
	}
	// The main panel carries the same section.
	if !strings.Contains(get("/debugz", http.StatusOK), "ingest: admitted") {
		t.Fatal("/debugz panel missing the ingest section")
	}

	// Without a front end the endpoint 404s.
	none := Handler(Options{})
	req := httptest.NewRequest("GET", "/debugz/tenants", nil)
	rw := httptest.NewRecorder()
	none.ServeHTTP(rw, req)
	if rw.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rw.Code)
	}
}

// TestResponseHeaders pins the header contract: every endpoint declares
// its content type and opts out of caching — these are live views, and
// a cached snapshot is worse than none.
func TestResponseHeaders(t *testing.T) {
	p, tr, lat := buildPE(t)
	col := obs.New(obs.Options{PE: p, Workload: "hdr"})
	h := Handler(Options{PE: p, Tracer: tr, Latency: lat, Obs: col})
	cases := []struct {
		path, wantType string
	}{
		{"/debugz", "text/plain; charset=utf-8"},
		{"/debugz/stats", "application/json"},
		{"/debugz/trace", "application/json"},
		{"/debugz/flows", "text/plain; charset=utf-8"},
		{"/debugz/flows?format=json", "application/json"},
		{"/metricz", obs.ContentType},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", c.path, rw.Code)
		}
		if got := rw.Header().Get("Content-Type"); got != c.wantType {
			t.Errorf("GET %s: Content-Type %q, want %q", c.path, got, c.wantType)
		}
		if got := rw.Header().Get("Cache-Control"); got != "no-store" {
			t.Errorf("GET %s: Cache-Control %q, want no-store", c.path, got)
		}
	}
}

// TestStatsJSONGolden pins the /debugz/stats wire shape: the exact
// top-level key set an instrumented run serves. A renamed or dropped
// field breaks dashboards silently; this test makes it loud instead.
func TestStatsJSONGolden(t *testing.T) {
	p, tr, lat := buildPE(t)
	h := Handler(Options{PE: p, Tracer: tr, Latency: lat, Workload: "golden"})
	req := httptest.NewRequest("GET", "/debugz/stats", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"executed", "faults", "latency", "level", "model", "sched",
		"sink_delivered", "trace_kinds", "workload",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats JSON keys drifted:\n got %v\nwant %v", got, want)
	}
	var lat2 struct {
		Latency struct {
			Count uint64 `json:"count"`
			P50Ns int64  `json:"p50_ns"`
			P99Ns int64  `json:"p99_ns"`
			MaxNs int64  `json:"max_ns"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &lat2); err != nil {
		t.Fatal(err)
	}
	if lat2.Latency.Count == 0 || lat2.Latency.P50Ns == 0 {
		t.Fatalf("latency summary shape drifted: %s", m["latency"])
	}
}

// TestObsEndpoints drives the three observability endpoints against a
// live collector: the flows panel in both formats, the OpenMetrics
// exposition (validated by the strict parser), and the flight-recorder
// fetch-and-force path.
func TestObsEndpoints(t *testing.T) {
	p, tr, lat := buildPE(t)
	rec := &obs.Recorder{MinGap: time.Nanosecond}
	col := obs.New(obs.Options{
		PE: p, Latency: lat, Recorder: rec, Workload: "obs-endpoints",
	})
	col.SampleNow()
	h := Handler(Options{PE: p, Tracer: tr, Latency: lat, Obs: col})

	get := func(path string, wantCode int) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, rw.Code, wantCode)
		}
		return rw
	}

	text := get("/debugz/flows", http.StatusOK).Body.String()
	for _, want := range []string{"workload: obs-endpoints", "flows:", "edge 0", "bottleneck:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("flows panel missing %q:\n%s", want, text)
		}
	}
	var fs obs.FlowSnapshot
	if err := json.Unmarshal(get("/debugz/flows?format=json", http.StatusOK).Body.Bytes(), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Workload != "obs-endpoints" || len(fs.Edges) == 0 {
		t.Fatalf("flows JSON: %+v", fs)
	}

	fams, err := obs.ParseExposition(get("/metricz", http.StatusOK).Body)
	if err != nil {
		t.Fatalf("/metricz does not parse: %v", err)
	}
	if _, ok := fams["streams_executed"]; !ok {
		t.Fatalf("/metricz families: %v", fams)
	}

	// No dump yet; forcing one serves it.
	get("/debugz/flightrec", http.StatusNotFound)
	var d obs.Dump
	if err := json.Unmarshal(get("/debugz/flightrec?dump=now", http.StatusOK).Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "manual" || len(d.Samples) == 0 {
		t.Fatalf("forced dump: reason %q, %d samples", d.Reason, len(d.Samples))
	}
	if err := json.Unmarshal(get("/debugz/flightrec", http.StatusOK).Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
}

// TestObsEndpointsWithoutCollector: the observability endpoints 404
// cleanly when the run was started without -obs.
func TestObsEndpointsWithoutCollector(t *testing.T) {
	h := Handler(Options{})
	for _, path := range []string{"/debugz/flows", "/debugz/flightrec", "/metricz"} {
		req := httptest.NewRequest("GET", path, nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusNotFound {
			t.Fatalf("GET %s without obs: status %d, want 404", path, rw.Code)
		}
	}
}

// Package debugz is the runtime's live introspection endpoint: an
// opt-in HTTP server that snapshots a running PE's scheduler meters,
// fault counters, latency histogram and tracer, and serves them as
// human-readable text, JSON, a Chrome trace_event file, and the
// standard pprof profiles.
//
//	GET /debugz            human-readable snapshot (the streamsim panel)
//	GET /debugz/stats      the same snapshot as JSON
//	GET /debugz/trace      tracer contents in Chrome trace_event format,
//	                       loadable in chrome://tracing or Perfetto
//	GET /debugz/flows      per-edge backpressure panel + attribution
//	                       report (?format=json for the machine view)
//	GET /debugz/flightrec  the most recent flight-recorder dump
//	                       (?dump=now forces one)
//	GET /metricz           OpenMetrics text exposition for scrapers
//	GET /debug/pprof/      the net/http/pprof index and profiles
//
// One Snapshot struct feeds every presentation: Collect reads each
// meter bundle through its single-pass snapshot API (never individual
// counters in sequence — see the metrics.Counter contract), WriteText
// renders the human panel, and the JSON field tags render the
// endpoint. The streamsim CLI prints its end-of-run summary through
// the same WriteText, so the human and machine views cannot drift. The
// flow endpoints follow the same discipline through obs.FlowSnapshot.
package debugz

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"streams/internal/fig"
	"streams/internal/ingest"
	"streams/internal/metrics"
	"streams/internal/obs"
	"streams/internal/pe"
	"streams/internal/trace"
)

// Options names the live objects the endpoint introspects. Every field
// is optional; absent ones render as absent rather than erroring.
type Options struct {
	// PE is the running processing element.
	PE *pe.PE
	// Tracer is the scheduler tracer (served at /debugz/trace).
	Tracer *trace.Tracer
	// Latency is the end-to-end latency histogram.
	Latency *metrics.Histogram
	// Workload describes the run for the snapshot header, e.g.
	// "w=10 d=100 cost=1000".
	Workload string
	// CtxSwitch optionally carries the modeled §5.1 context-switch
	// estimate for the workload's panel.
	CtxSwitch *fig.CtxSwitchEstimate
	// Ingest is the network front end, when the run has one; it adds
	// the per-tenant admission panel and the /debugz/tenants endpoint.
	Ingest *ingest.Server
	// Obs is the flow-observability collector, when the run has one; it
	// adds /metricz, /debugz/flows and /debugz/flightrec.
	Obs *obs.Collector
}

// LatencySummary is the JSON-friendly digest of a latency histogram
// snapshot: counts plus the standard quantile upper bounds in
// nanoseconds.
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P90Ns int64  `json:"p90_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`
}

// summarize digests a histogram snapshot.
func summarize(s metrics.HistogramSnapshot) *LatencySummary {
	if s.Total == 0 {
		return nil
	}
	return &LatencySummary{
		Count: s.Total,
		P50Ns: int64(s.Quantile(0.50)),
		P90Ns: int64(s.Quantile(0.90)),
		P99Ns: int64(s.Quantile(0.99)),
		MaxNs: int64(s.Max()),
	}
}

// Snapshot is one consistent observation of a run, the single source
// for every output format.
type Snapshot struct {
	// Workload is the run description from Options.
	Workload string `json:"workload,omitempty"`
	// Model is the threading model name.
	Model string `json:"model"`
	// Level is the thread level at snapshot time.
	Level int `json:"level"`
	// Executed counts tuples processed across all operators.
	Executed uint64 `json:"executed"`
	// SinkDelivered counts tuples that reached sink operators.
	SinkDelivered uint64 `json:"sink_delivered"`
	// Sched carries the dynamic scheduler's slow-path meters.
	Sched pe.SchedStats `json:"sched"`
	// Faults carries the fault-containment meters.
	Faults metrics.FaultsSnapshot `json:"faults"`
	// LastFault describes the most recent contained fault ("" if none).
	LastFault string `json:"last_fault,omitempty"`
	// Latency digests the end-to-end latency histogram (nil when
	// latency measurement is off or no sample has landed).
	Latency *LatencySummary `json:"latency,omitempty"`
	// TraceKinds tallies traced events by kind (nil without a tracer).
	TraceKinds map[string]int `json:"trace_kinds,omitempty"`
	// CtxSwitch is the modeled context-switch estimate, when supplied.
	CtxSwitch *fig.CtxSwitchEstimate `json:"ctx_switch,omitempty"`
	// Ingest is the admission-control state (nil without a front end).
	Ingest *ingest.Snapshot `json:"ingest,omitempty"`
}

// Collect takes one consistent snapshot of the run. Multi-counter
// bundles are read through their snapshot APIs in a single pass each.
func Collect(o Options) Snapshot {
	var s Snapshot
	s.Workload = o.Workload
	s.CtxSwitch = o.CtxSwitch
	if o.PE != nil {
		s.Model = o.PE.Model().String()
		s.Level = o.PE.Level()
		s.Sched = o.PE.SchedStats()
		s.Faults = o.PE.FaultStats()
		s.LastFault = o.PE.LastFault()
		s.Executed = o.PE.Executed()
		s.SinkDelivered = o.PE.SinkDelivered()
	}
	if o.Latency != nil {
		s.Latency = summarize(o.Latency.Snapshot())
	}
	if o.Tracer != nil {
		s.TraceKinds = trace.Kinds(o.Tracer.Snapshot())
	}
	if o.Ingest != nil {
		in := o.Ingest.Snapshot()
		s.Ingest = &in
	}
	return s
}

// FromNative builds the same Snapshot from a finished RunNative result,
// so the CLI's end-of-run summary and the live endpoint share one
// rendering path.
func FromNative(model pe.Model, workload string, res fig.NativeResult, tr *trace.Tracer) Snapshot {
	s := Snapshot{
		Workload: workload,
		Model:    model.String(),
		Level:    res.FinalLevel,
		Sched:    res.Stats,
		Faults:   res.Faults,
		Latency:  summarize(res.Latency),
	}
	if tr != nil {
		s.TraceKinds = trace.Kinds(tr.Snapshot())
	}
	return s
}

// WriteText renders the snapshot as the human-readable panel both the
// /debugz page and the streamsim CLI print.
func (s Snapshot) WriteText(w io.Writer) {
	if s.Workload != "" {
		fmt.Fprintf(w, "workload: %s\n", s.Workload)
	}
	fmt.Fprintf(w, "model %s, thread level %d\n", s.Model, s.Level)
	if s.Executed != 0 || s.SinkDelivered != 0 {
		fmt.Fprintf(w, "executed %d tuples, %d delivered to sinks\n", s.Executed, s.SinkDelivered)
	}
	st := s.Sched
	fmt.Fprintf(w, "scheduler: reschedules %d, find failures %d\n", st.Reschedules, st.FindFailures)
	fmt.Fprintf(w, "free list: %s\n", meterList(st.Contention))
	if st.Chain != (metrics.ChainSnapshot{}) {
		fmt.Fprintf(w, "chain: %s\n", meterList(st.Chain))
	}
	if st.VM != (metrics.VMSnapshot{}) {
		fmt.Fprintf(w, "vm: %s\n", meterList(st.VM))
	}
	if s.Faults != (metrics.FaultsSnapshot{}) {
		fmt.Fprintf(w, "faults: %s\n", meterList(s.Faults))
	}
	if s.LastFault != "" {
		fmt.Fprintf(w, "last fault: %s\n", s.LastFault)
	}
	if l := s.Latency; l != nil {
		fmt.Fprintf(w, "latency: n=%d p50≤%v p90≤%v p99≤%v max≤%v\n", l.Count,
			time.Duration(l.P50Ns), time.Duration(l.P90Ns), time.Duration(l.P99Ns), time.Duration(l.MaxNs))
	}
	if len(s.TraceKinds) > 0 {
		fmt.Fprintf(w, "trace events:")
		for _, k := range trace.KindNames() {
			if n := s.TraceKinds[k]; n > 0 {
				fmt.Fprintf(w, " %s=%d", k, n)
			}
		}
		fmt.Fprintln(w)
	}
	if s.CtxSwitch != nil {
		fmt.Fprintf(w, "%s\n", s.CtxSwitch)
	}
	if in := s.Ingest; in != nil {
		writeIngest(w, *in)
	}
}

// meterList renders a bundle snapshot's meters as "kind n, kind n, …"
// in declaration order.
func meterList(snap any) string {
	var parts []string
	metrics.Each(snap, func(kind, _ string, v uint64) {
		parts = append(parts, fmt.Sprintf("%s %d", kind, v))
	})
	return strings.Join(parts, ", ")
}

// writeIngest renders the admission panel: one totals line, one line
// per tenant.
func writeIngest(w io.Writer, in ingest.Snapshot) {
	state := ""
	if in.Overloaded {
		state = ", OVERLOADED"
	}
	if in.Draining {
		state += ", draining"
	}
	fmt.Fprintf(w, "ingest: %s%s\n", meterList(in.Totals), state)
	for _, tn := range in.Tenants {
		class := "besteffort"
		if tn.Guaranteed {
			class = "guaranteed"
		}
		fmt.Fprintf(w, "  tenant %s (%s, %s): admitted %d, shed %d, throttled %d, queue %d/%d, bucket %.0f%%\n",
			tn.Name, class, tn.Policy, tn.Admitted, tn.Shed, tn.Throttled, tn.Depth, tn.Cap, tn.Fill*100)
	}
}

// textHeaders and jsonHeaders stamp the response headers every dynamic
// endpoint needs: an explicit Content-Type (the JSON endpoints must not
// rely on sniffing, which yields text/plain) and Cache-Control:
// no-store, because every response is a live snapshot that is stale the
// moment it is written.
func textHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
}

func jsonHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
}

// Handler returns the endpoint's mux: /debugz, /debugz/stats,
// /debugz/trace, /debugz/flows, /debugz/flightrec, /metricz and
// /debug/pprof/*. It is a plain http.Handler so callers can mount it
// on any server.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debugz", func(w http.ResponseWriter, _ *http.Request) {
		textHeaders(w)
		Collect(o).WriteText(w)
	})
	mux.HandleFunc("/debugz/stats", func(w http.ResponseWriter, _ *http.Request) {
		jsonHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(Collect(o))
	})
	mux.HandleFunc("/debugz/trace", func(w http.ResponseWriter, _ *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer configured (run with -trace)", http.StatusNotFound)
			return
		}
		jsonHeaders(w)
		_ = o.Tracer.Export(w)
	})
	mux.HandleFunc("/debugz/tenants", func(w http.ResponseWriter, r *http.Request) {
		if o.Ingest == nil {
			http.Error(w, "no ingest front end configured (run with -ingest-addr)", http.StatusNotFound)
			return
		}
		in := o.Ingest.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			jsonHeaders(w)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(in)
			return
		}
		textHeaders(w)
		writeIngest(w, in)
	})
	mux.HandleFunc("/debugz/flows", func(w http.ResponseWriter, r *http.Request) {
		if o.Obs == nil {
			http.Error(w, "no flow observability configured (run with -obs)", http.StatusNotFound)
			return
		}
		fs := o.Obs.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			jsonHeaders(w)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(fs)
			return
		}
		textHeaders(w)
		fs.WriteText(w)
	})
	mux.HandleFunc("/debugz/flightrec", func(w http.ResponseWriter, r *http.Request) {
		if o.Obs == nil || o.Obs.Recorder() == nil {
			http.Error(w, "no flight recorder armed (run with -obs)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("dump") == "now" {
			o.Obs.Trigger("manual")
		}
		dump, _ := o.Obs.Recorder().LastDump()
		if dump == nil {
			http.Error(w, "no dump recorded yet", http.StatusNotFound)
			return
		}
		jsonHeaders(w)
		_, _ = w.Write(dump)
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, _ *http.Request) {
		if o.Obs == nil {
			http.Error(w, "no flow observability configured (run with -obs)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		w.Header().Set("Cache-Control", "no-store")
		_ = o.Obs.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr and serves the endpoint in a background goroutine.
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(o)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

package main

// The catalog is the single definition of the benchmark's names:
// BENCHMARK.json is generated from it (-manifest) and smoke_test.go
// fails when the two differ, so a metric cannot be emitted without
// being declared or declared without being emitted.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	wlLogins   = "spl_logins"
	wlChain    = "spl_chain"
	wlFanout   = "fanout_hop"
	wlPaced    = "ingest_paced"
	wlOverload = "ingest_overload"
)

var workloads = []workloadDef{
	{wlLogins, "closed; paper Fig.1 LoginFailures over seeded syslog lines: string/list logic on the SPL closure evaluator, @parallel 7 and 4 put queues between operators; vm idle"},
	{wlChain, "closed; Beacon, three arithmetic Customs and a Filter all compiled to bytecode: fused, vectorized VM dispatch in one inline chain; no queue fan-out, no ingest"},
	{wlFanout, "closed; paper data-parallel graph, 8 native workers: every tuple crosses splitter fan-out and sink fan-in queues, free list and steals; no vm, spl or ingest"},
	{wlPaced, "open loop; 2 loopback TCP tenants at a fixed 200k tuples/s (about 20% of ceiling) through decode, admit, pump, submit, fused VM: hand-off and idle costs that saturation hides"},
	{wlOverload, "open loop; same pipeline and rate, offered 2x its contract: gold 45k/s guaranteed and shaped, bronze 155k/s policed to 50k/s, so admission refuses instead of passing through; gold latency stays flat"},
}

// manifestRunSeconds is the measuring time BENCHMARK.json asks the
// driver to pass as -seconds.
const manifestRunSeconds = 15

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the contract); README.md says what each means on a
// closed and on an open-loop workload and how the bounds were derived.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"cpu_us_per_ktuple", "us/ktuple", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced pass's metrics, one layer per name prefix.
var perLayer = []layerDef{
	{"xport.decode_ns_per_frame", "ns", "lower"},
	{"xport.encode_ns_per_frame", "ns", "lower"},

	{"ingest.door_us_mid", "us", "lower"},
	{"ingest.door_us_p50", "us", "lower"},
	{"ingest.door_us_p99", "us", "lower"},
	{"ingest.queue_depth_mean", "tuples", "lower"},
	{"ingest.queue_depth_max", "tuples", "lower"},
	{"ingest.admitted_frac", "ratio", "higher"},
	{"ingest.shed_frac", "ratio", "lower"},
	{"ingest.throttled_frac", "ratio", "lower"},
	{"ingest.admit_over_contract", "ratio", "lower"},
	{"ingest.rejected", "count", "lower"},
	{"ingest.evicted", "count", "lower"},
	{"ingest.bronze_p50_ms", "ms", "lower"},
	{"ingest.bronze_p99_ms", "ms", "lower"},
	{"ingest.ceiling_tps", "tuples/s", "higher"},

	{"sched.submit_ns_per_tuple", "ns", "lower"},
	{"sched.submit_us_mid", "us", "lower"},
	{"sched.transit_us_mid", "us", "lower"},
	{"sched.transit_us_p50", "us", "lower"},
	{"sched.transit_us_p99", "us", "lower"},
	{"sched.queue_exec_per_tuple", "count", "lower"},
	{"sched.chain_frac", "ratio", "higher"},
	{"sched.chain_stops_per_ktuple", "1/ktuple", "lower"},
	{"sched.resched_per_ktuple", "1/ktuple", "lower"},
	{"sched.blocked_ns_per_tuple", "ns", "lower"},
	{"sched.queue_depth_mean", "tuples", "lower"},
	{"sched.find_fail_per_ktuple", "1/ktuple", "lower"},
	{"sched.park_frac", "ratio", "higher"},
	{"sched.port_hold_us_mean", "us", "higher"},
	{"sched.steal_per_ktuple", "1/ktuple", "lower"},
	{"sched.steal_miss_ratio", "ratio", "lower"},
	{"sched.freelist_fail_per_ktuple", "1/ktuple", "lower"},
	{"sched.partition_skew", "ratio", "lower"},
	{"sched.overhead_ratio", "ratio", "lower"},

	{"lfq.spsc_ns_per_tuple", "ns", "lower"},
	{"lfq.mpmc_ns_per_op", "ns", "lower"},
	{"lfq.mpmc_contended_ns_per_op", "ns", "lower"},

	{"vm.fused_frac", "ratio", "higher"},
	{"vm.vec_frac", "ratio", "higher"},
	{"vm.vec_rows_per_batch", "rows", "higher"},
	{"vm.fallback_per_ktuple", "1/ktuple", "lower"},
	{"vm.vec_abort_per_ktuple", "1/ktuple", "lower"},
	{"vm.scalar_ns_per_tuple", "ns", "lower"},
	{"vm.vec_ns_per_row", "ns", "lower"},

	{"spl.compile_ms", "ms", "lower"},
	{"spl.vm_ops", "count", "higher"},
	{"spl.closure_ops", "count", "lower"},
	{"spl.parse_ns_per_line", "ns", "lower"},
	{"spl.filter_ns_per_tuple", "ns", "lower"},
	{"spl.extract_ns_per_tuple", "ns", "lower"},
	{"spl.chain_closure_ns_per_tuple", "ns", "lower"},
	{"spl.source_ns_per_tuple", "ns", "lower"},
	{"spl.source_allocs_per_tuple", "allocs/tuple", "lower"},
	{"spl.sink_ns_per_tuple", "ns", "lower"},

	{"ops.spin_ns_per_call", "ns", "lower"},
	{"ops.sink_ns_per_tuple", "ns", "lower"},
	{"ops.generator_tps", "tuples/s", "higher"},

	{"pe.manual_tuples_per_s", "tuples/s", "higher"},
	{"pe.start_ms", "ms", "lower"},
	{"pe.drain_ms", "ms", "lower"},
	{"pe.lat_p99_ms", "ms", "lower"},
	{"pe.allocs_per_tuple", "allocs/tuple", "lower"},
	{"pe.bytes_per_tuple", "B/tuple", "lower"},
	{"pe.heap_peak_mb", "MB", "lower"},
	{"pe.gc_pause_ms_total", "ms", "lower"},
	{"pe.gc_cpu_frac", "ratio", "lower"},

	{"metrics.hist_record_ns", "ns", "lower"},
	{"metrics.hist_p99_rel_err", "ratio", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.events_per_ktuple", "1/ktuple", "lower"},
	{"trace.waterfall_cover", "ratio", "higher"},
	{"obs.sample_ms", "ms", "lower"},

	{"gen.late_us_mid", "us", "lower"},
	{"gen.late_us_p99", "us", "lower"},
	{"gen.late_us_max", "us", "lower"},
	{"gen.achieved_rate_frac", "ratio", "higher"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: manifestRunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

package main

// metricDef is one entry of BENCHMARK.json. The tables below are what
// the harness emits; harness_test.go holds them equal to the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the simulator sees, on every workload.
// Bound is the share of the parent's median by which the metric may get
// worse. Failures are not a metric here because a metric may never read
// 0: they are the attempted/failed counts of every result, and any rise
// fails a comparison.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetricDefs are the per-layer metrics of the traced pass. README.md
// says which end-to-end metric each should move, on which workload.
var layerMetricDefs = []metricDef{
	{Name: "topo.build_s", Unit: "s", Better: "lower"},
	{Name: "topo.builds", Unit: "count", Better: "lower"},
	{Name: "workload.commodities_s", Unit: "s", Better: "lower"},
	{Name: "route.ecmp_s", Unit: "s", Better: "lower"},
	{Name: "route.ksp_s", Unit: "s", Better: "lower"},
	{Name: "route.ksp_pairs", Unit: "count", Better: "lower"},
	{Name: "route.ksp_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "mcf.maxmin_s", Unit: "s", Better: "lower"},
	{Name: "mcf.fixed_s", Unit: "s", Better: "lower"},
	{Name: "mcf.free_s", Unit: "s", Better: "lower"},
	{Name: "mcf.phases", Unit: "count", Better: "lower"},
	{Name: "mcf.iterations", Unit: "count", Better: "lower"},
	{Name: "mcf.ns_per_iter", Unit: "ns", Better: "lower"},
	{Name: "workload.start_flows_s", Unit: "s", Better: "lower"},
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.packet_hops", Unit: "count", Better: "lower"},
	{Name: "sim.drops", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_hop", Unit: "ratio", Better: "lower"},
	{Name: "sim.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_hop", Unit: "ratio", Better: "lower"},
	{Name: "tcp.flows", Unit: "count", Better: "lower"},
	{Name: "tcp.us_per_flow", Unit: "us", Better: "lower"},
	{Name: "exp.faults_s", Unit: "s", Better: "lower"},
	{Name: "exp.incast_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig10_s", Unit: "s", Better: "lower"},
	{Name: "obs.overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "obs.report_overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "obs.fingerprint_overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "par.speedup_x", Unit: "ratio", Better: "higher"},
	{Name: "par.observed_speedup_x", Unit: "ratio", Better: "higher"},
	{Name: "par.cpu_inflation_x", Unit: "ratio", Better: "lower"},
	{Name: "report.bytes", Unit: "count", Better: "lower"},
	{Name: "report.flows", Unit: "count", Better: "lower"},
	{Name: "report.engine_events", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "harness.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
}

package main

// Every name the benchmark prints. BENCHMARK.json lists the same names;
// TestNamesMatchBenchmarkJSON keeps the two in step.

// Workload names, in run order.
const (
	wlGenCapture   = "gen-capture"
	wlScanVerdicts = "scan-verdicts"
	wlScanReport   = "scan-report"
	wlFleetMerge   = "fleet-merge"
)

var workloadNames = []string{wlGenCapture, wlScanVerdicts, wlScanReport, wlFleetMerge}

// metricDef is one printed metric: its name and unit.
type metricDef struct {
	Name string
	Unit string
}

// End-to-end metrics: every untraced run of every workload prints all of
// them (the driver contract), so each is defined on all four workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"out_bytes_per_op", "B"},
}

// fleetAggNames names the 12 members of analysis.NewFleetAggs, in slot order.
var fleetAggNames = []string{
	"stage_stats", "country_by_sig", "evidence", "sig_by_country", "asn_view", "ip_version",
	"protocol", "domain", "overlap", "stability", "scanner", "time_series",
}

// Per-layer metrics: every traced (ledger) run prints all of them.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"workload.build_ms", "ms"},
		{"workload.specs_us_per_conn", "us"},
		{"workload.simulate_us_per_conn", "us"},
		{"workload.simulate_us_per_conn.censored", "us"},
		{"workload.simulate_us_per_conn.clean", "us"},
		{"workload.allocs_per_conn", "count"},
		{"workload.sampled_ratio", "ratio"},
		{"workload.speedup", "ratio"},
		{"middlebox.domain_of_ns", "ns"},
		{"capture.encode_ns_per_rec", "ns"},
		{"capture.scan_ns_per_rec", "ns"},
		{"capture.decode_ns_per_rec", "ns"},
		{"capture.reconstruct_ns_per_rec", "ns"},
		{"capture.decode_allocs_per_rec", "count"},
		{"capture.index_open_us", "us"},
		{"capture.bytes_per_rec", "B"},
		{"core.classify_ns_per_rec", "ns"},
		{"core.classify_allocs_per_rec", "count"},
		{"core.tampering_share", "ratio"},
		{"geo.lookup_ns.cached", "ns"},
		{"geo.lookup_ns.uncached", "ns"},
		{"analysis.record_ns_per_rec", "ns"},
		{"analysis.add_ns_per_rec.fleet", "ns"},
	}
	for _, a := range fleetAggNames {
		m = append(m, metricDef{"analysis.add_ns_per_rec." + a, "ns"})
	}
	return append(m,
		metricDef{"analysis.add_allocs_per_rec", "count"},
		metricDef{"analysis.merge_us", "us"},
		metricDef{"analysis.snapshot_encode_us", "us"},
		metricDef{"analysis.snapshot_restore_us", "us"},
		metricDef{"analysis.snapshot_bytes", "B"},
		metricDef{"analysis.render_ms", "ms"},
		metricDef{"pipeline.stream_ns_per_rec.w1", "ns"},
		metricDef{"pipeline.stream_ns_per_rec.wN", "ns"},
		metricDef{"pipeline.sharded_ns_per_rec.sN", "ns"},
		metricDef{"pipeline.allocs_per_rec.w1", "count"},
		metricDef{"pipeline.allocs_per_rec.wN", "count"},
		metricDef{"pipeline.overhead_ns_per_rec", "ns"},
		metricDef{"pipeline.ordered_sink_ns_per_rec", "ns"},
		metricDef{"pipeline.telemetry_ratio", "ratio"},
		metricDef{"pipeline.tracer_ratio", "ratio"},
		metricDef{"pipeline.cli_overhead_ns_per_rec", "ns"},
		metricDef{"pipeline.speedup.scan-verdicts", "ratio"},
		metricDef{"pipeline.speedup.scan-report", "ratio"},
		metricDef{"fleet.encode_us_per_frame", "us"},
		metricDef{"fleet.decode_us_per_frame", "us"},
		metricDef{"fleet.ingest_us_per_frame", "us"},
		metricDef{"fleet.ingest_us_per_frame.p99", "us"},
		metricDef{"fleet.frame_bytes", "B"},
		metricDef{"fleet.transport_us_per_frame", "us"},
		metricDef{"fleet.report_ms", "ms"},
		metricDef{"fleet.accepted_ratio", "ratio"},
		metricDef{"fleet.pusher_retries", "count"},
		metricDef{"fleet.push_ms_p50", "ms"},
		metricDef{"fleet.push_ms_p99", "ms"},
		metricDef{"fleet.report_ms_p50", "ms"},
		metricDef{"build_s", "s"},
		metricDef{"ledger.gen-capture.unattributed_share", "ratio"},
		metricDef{"ledger.scan-verdicts.unattributed_share", "ratio"},
		metricDef{"ledger.scan-report.unattributed_share", "ratio"},
		metricDef{"ledger.fleet-merge.unattributed_share", "ratio"},
		metricDef{"env.num_cpu", "count"},
		metricDef{"env.gomaxprocs", "count"},
	)
}()

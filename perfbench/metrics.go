package main

// decl declares one reported metric. BENCHMARK.json at the repository
// root lists the same names and units (the package test checks that);
// README.md says which layer each one measures and which end-to-end
// metric it should move.
type decl struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what every untraced run reports, on every workload.
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p90_us", "us", "lower"},
	{"compile_ms", "ms", "lower"},
	{"heap_live_mib", "MiB", "lower"},
}

// stageMetrics are the datapath metrics also reported per pipeline stage,
// with a .<middlebox> suffix, for every middlebox a workload runs.
var stageMetrics = []decl{
	{"switchsim.pre_ns", "ns", "lower"},
	{"switchsim.pre_allocs", "count", "lower"},
	{"switchsim.fast_path_ratio", "ratio", "higher"},
	{"packet.serialize_ns", "ns", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"serverrt.process_ns", "ns", "lower"},
	{"serverrt.allocs_per_pkt", "count", "lower"},
	{"serverrt.steps_per_pkt", "count", "lower"},
	{"serverrt.updates_per_pkt", "count", "lower"},
	{"switchsim.post_ns", "ns", "lower"},
	{"switchsim.apply_ns_per_op", "ns", "lower"},
}

// stageNames are the middleboxes the packet workloads run; each traced
// run reports every one of them (zero for a middlebox it does not run).
var stageNames = []string{"firewall", "mazunat", "l4lb"}

// layerMetrics are the traced run's metrics that are not per stage.
var layerMetrics = []decl{
	{"lang.compile_ms", "ms", "lower"},
	{"partition.ms", "ms", "lower"},
	{"analysis.lint_ms", "ms", "lower"},
	{"analysis.verify_ms", "ms", "lower"},
	{"p4.generate_ms", "ms", "lower"},
	{"servergen.generate_ms", "ms", "lower"},
	{"compile.allocs_per_pass", "count", "lower"},
	{"compile.bytes_per_pass", "B", "lower"},
	{"engine.dispatch_ns", "ns", "lower"},
	{"switchsim.ctl_rejected", "count", "lower"},
	{"switchsim.remiss", "count", "lower"},
	{"flowstate.sweep_us", "us", "lower"},
	{"flowstate.expired", "count", "higher"},
	{"flowstate.evicted", "count", "lower"},
	{"flowstate.occupancy_peak", "count", "lower"},
	{"ctlplane.compile_us", "us", "lower"},
	{"engine.reconfigure_us", "us", "lower"},
	{"engine.reconfig_p50_us", "us", "lower"},
	{"engine.reconfig_p90_us", "us", "lower"},
	{"engine.lat_p99_us", "us", "lower"},
	{"engine.cpu_ns_per_pkt", "ns", "lower"},
	{"engine.allocs_per_pkt", "count", "lower"},
	{"engine.batch_size_mean", "count", "higher"},
	{"engine.loss_ratio", "ratio", "lower"},
	{"engine.unaccounted_ns_per_pkt", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"gen.reset_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// perLayer is every metric a traced run reports: the layer metrics, the
// stage metrics summed over stages, and the stage metrics per stage.
func perLayer() []decl {
	out := append([]decl(nil), layerMetrics...)
	out = append(out, stageMetrics...)
	for _, mb := range stageNames {
		for _, d := range stageMetrics {
			d.Name += "." + mb
			out = append(out, d)
		}
	}
	return out
}

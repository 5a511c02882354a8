package main

import "gskew/internal/experiments"

// metricDef names one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test
// holds the two in step) and adds each end-to-end metric's regression
// bound, which -compare reads from there.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports for every workload.
// The host they were chosen on is shared: a pass's wall time swings by
// a quarter from one pass to the next, and medians moved by a sixth
// between back-to-back runs of one seed, while the fastest pass moved
// by a twentieth. So the gated timings are best-of figures (the
// fastest pass, or the best window or block of the serve mix), and the
// medians and tails are printed beside them as comments. Every timing
// is scaled to a fixed host speed (hostref.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // median of setupRepeats untimed set-ups
	{"best_ms", "ms", "lower"},      // fastest pass; serve: best one-window median request latency
	{"cpu_ms", "ms", "lower"},       // user+system CPU of the cheapest pass; serve: per request
	{"peak_rss_mb", "MB", "lower"},  // peak resident set of the workload's process
	{"throughput", "1/s", "higher"}, // work per second of the fastest pass; serve: closed-loop requests
}

// familyKeys names the replay predictors in per-family metric names.
var familyKeys = []string{"bimodal", "gshare", "gskewed", "egskew", "2bcgskew"}

// serveOps are the request kinds of the serve mix.
var serveOps = []string{"read", "cold", "ingest", "byhash"}

// perLayer are the metrics a traced run reports. Every traced run
// measures all of them (each workload's traced pass and layer probes),
// plus trace_overhead_pct for the workload it was asked for.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	for _, e := range experiments.All() {
		add("s", "lower", "suite.exp."+e.ID+"_s")
	}
	add("s", "lower", "suite.materialize_s", "suite.sim_busy_s")
	add("count", "higher", "suite.branch_preds")
	add("s", "lower", "suite.analysis_s")
	add("ns", "lower", "suite.sim_ns_per_bp")
	add("s", "lower", "suite.render_s")

	add("ns", "lower", "workload.generate_ns_per_branch", "trace.encode_ns_per_rec", "trace.decode_ns_per_rec")
	add("ratio", "lower", "replay.decode_share")
	for _, prefix := range []string{"kernel.step_ns_per_bp.", "sim.slice_ns_per_bp.", "sim.replay_ns_per_bp."} {
		for _, f := range familyKeys {
			add("ns", "lower", prefix+f)
		}
	}
	add("ns", "lower", "sim.stage_ns_per_branch")

	add("ns", "lower", "algotrace.record_ns_per_branch")
	add("us", "lower", "predictor.new_us")
	add("ns", "lower",
		"kernel.group64_ns_per_lane_step.single", "kernel.group64_ns_per_lane_step.skew",
		"sim.sweep_ns_per_bp", "sim.sweep_serial_ns_per_bp", "sim.sweep_scalar_ns_per_bp")
	add("ratio", "higher", "sim.bitslice_lane_share")
	add("ratio", "lower", "sim.seg_replay_share")

	for _, op := range serveOps {
		add("ms", "lower", "client.rtt_ms."+op)
	}
	for _, op := range serveOps {
		add("ms", "lower", "server.handler_ms."+op)
	}
	add("ms", "lower", "serve.transport_ms")
	add("count", "lower", "serve.queue_depth_max")
	add("us", "lower", "store.get_us", "store.put_us")
	add("ratio", "higher", "serve.store_hit_ratio")
	add("ms", "lower", "tracepool.put_ms", "tracepool.get_ms")
	add("ns", "lower", "trace.hash_ns_per_rec")
	add("ms", "lower", "sim.cold_ms", "loadgen.lag_ms_p99")
	add("%", "lower", "trace_overhead_pct")
	return defs
}

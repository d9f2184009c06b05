package main

import "repro/internal/core"

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metric (and workload) it should move; BENCHMARK.json's
// fixed schema has no room for that, so it lives here and is printed
// with every traced run.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "hop_pps", unit: "1/s", better: "higher"},
	{name: "refs_per_packet", unit: "count", better: "lower"},
	{name: "snapshot_mib", unit: "MiB", better: "lower"},
	{name: "churn_ops_per_s", unit: "1/s", better: "higher"},
	{name: "churn_read_pps", unit: "1/s", better: "higher"},
	{name: "churn_update_p50_ms", unit: "ms", better: "lower"},
	{name: "churn_update_p99_ms", unit: "ms", better: "lower"},
}

// perLayer are the single-layer metrics, printed by every traced run.
// The wire.* figures are the 3-node clued chain's own results: on a
// 2-vCPU shared host they swing too far from run to run to carry a
// bound, so they ride with the traced run, beside the layers under them.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wire.goodput_pps", "1/s", "higher", "wire stage: saturation goodput"},
		{"wire.p50_us_40k", "us", "lower", "wire stage: latency at 40k pps"},
		{"wire.p99_us_40k", "us", "lower", "wire stage: latency at 40k pps"},
		{"wire.p50_us_80k", "us", "lower", "wire stage: latency at 80k pps"},
		{"wire.p99_us_80k", "us", "lower", "wire stage: latency at 80k pps"},
		{"cluster.launch_s", "s", "lower", "set-up time of the wire stage"},
		{"batchio.send_ns_per_pkt", "ns", "lower", "wire.goodput_pps"},
		{"batchio.recv_pkts_per_call", "count", "higher", "wire.goodput_pps"},
		{"clued.cpu_us_per_pkt", "us", "lower", "wire.goodput_pps, wire.p50_us_80k"},
		{"clued.sys_share", "ratio", "lower", "wire.goodput_pps, wire.p50_us_80k"},
		{"clued.csw_per_pkt", "count", "lower", "wire.p50_us_40k"},
		{"clued.refs_per_pkt.c1", "count", "lower", "wire.p50_us_40k"},
		{"clued.fd_share.c1", "ratio", "higher", "wire.p50_us_40k"},
		{"gen.late_us_p99", "us", "lower", "validity of the wire stage's open-loop phases"},
		{"synth.gen_s", "s", "lower", "setup_s (hop-1m, churn-100k)"},
		{"core.preprocess_s", "s", "lower", "setup_s (hop-1m, churn-100k)"},
		{"fastpath.compile_s", "s", "lower", "setup_s (hop-1m, churn-100k)"},
		{"header.peek_ns_per_pkt", "ns", "lower", "hop_pps (hop-1m)"},
		{"fastpath.lookup_ns_per_pkt", "ns", "lower", "hop_pps, refs_per_packet (hop-1m)"},
		{"header.rewrite_ns_per_pkt", "ns", "lower", "hop_pps (hop-1m)"},
	}
	for _, o := range core.OutcomeLabels() {
		better := "lower"
		if o == core.OutcomeFD.String() {
			better = "higher"
		}
		defs = append(defs, metricDef{"fastpath.outcome_share." + o, "ratio", better, "hop_pps, refs_per_packet (hop-1m)"})
	}
	return append(defs,
		metricDef{"fastpath.trie_bytes", "bytes", "lower", "snapshot_mib (hop-1m, churn-100k)"},
		metricDef{"fastpath.slot_bytes", "bytes", "lower", "snapshot_mib (hop-1m, churn-100k)"},
		metricDef{"fastpath.dict_bytes", "bytes", "lower", "snapshot_mib (hop-1m, churn-100k)"},
		metricDef{"fastpath.apply_us_per_op", "us", "lower", "churn_ops_per_s, churn_update_p50_ms (churn-100k)"},
		metricDef{"core.edit_us_per_op", "us", "lower", "churn_ops_per_s (churn-100k)"},
		metricDef{"fastpath.coalesced_ratio", "ratio", "higher", "churn_update_p99_ms (churn-100k)"},
		metricDef{"fastpath.fallback_ratio", "ratio", "lower", "churn_update_p99_ms (churn-100k)"},
		metricDef{"fastpath.compactions", "count", "lower", "churn_update_p99_ms (churn-100k)"},
		metricDef{"fastpath.recompiles", "count", "lower", "churn_update_p99_ms (churn-100k)"},
		metricDef{"runtime.gc_cycles", "count", "lower", "churn_read_pps (churn-100k), hop_pps (hop-1m)"},
		metricDef{"runtime.gc_cpu_fraction", "ratio", "lower", "churn_read_pps (churn-100k), hop_pps (hop-1m)"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes", "lower", "churn_read_pps (churn-100k), hop_pps (hop-1m)"},
		metricDef{"trace.overhead_hop_pps", "1/s", "higher", "tracing cost on hop_pps"},
		metricDef{"trace.overhead_churn_ops_per_s", "1/s", "higher", "tracing cost on churn_ops_per_s"},
	)
}()

package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, for every
// workload. Each is a time a user of the CLI or the daemon waits,
// scaled to the reference host speed (see refLoop); the per-workload
// meaning of op_ms and op2_ms is in opNames.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"op2_ms", "ms"},
}

// opNames says what op_ms and op2_ms time on each workload.
var opNames = map[string][2]string{
	"paper": {"cold `run all` batch at jobs = nproc", "cold `run all` batch at jobs = 1"},
	"sweep": {"cold full-lattice sweep into an empty store", "warm full-lattice replay from the set-up store"},
	"serve": {"/sweep round trip", "/optimize round trip"},
}

// experimentIDs are the experiments timed solo in the traced paper
// run (harness.exp.<id>_s). The list is fixed so the metric names do
// not change when the registry does; an ID the registry lacks reports 0.
var experimentIDs = []string{
	"fig2", "fig3", "fig5", "lebench-detail", "parsec-default", "security",
	"smt-cost", "table1", "table10", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9", "vm-lebench", "vm-lfs", "whatif-v1hw",
}

// profPackages are the packages the traced run's CPU profile is split
// across (prof.<pkg>_pct): every internal package, the Go runtime, and
// "other" for the standard library and the benchmark itself.
var profPackages = []string{
	"runtime", "cpu", "mem", "cache", "tlb", "branch", "isa", "pmc",
	"kernel", "js", "vmm", "fs", "buffers", "model", "core", "workloads",
	"engine", "simscope", "gls", "checkpoint", "faultinject", "store",
	"grid", "harness", "stats", "attacks", "optimize", "server", "other",
}

// perLayer are the metrics a traced run reports. A metric that does
// not apply to a workload reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The end-to-end times as measured, before scaling to the
		// reference host speed.
		{"setup_wall_s", "s"},
		{"op_wall_ms", "ms"},
		{"op2_wall_ms", "ms"},

		// Workload-level numbers that only make sense on one workload,
		// measured in the traced run's untraced pass.
		{"run_all_s", "s"},
		{"sim_mcycles_per_s", "Mcycles/s"},
		{"cells_per_s", "1/s"},
		{"replay_cells_per_s", "1/s"},
		{"sweep_p50_ms", "ms"},
		{"sweep_tail_ms", "ms"},
		{"sweep_tail_pct", "%"},
		{"sweep_samples", "count"},
		{"optimize_p50_ms", "ms"},
		{"optimize_tail_ms", "ms"},
		{"optimize_tail_pct", "%"},
		{"optimize_samples", "count"},
		{"requests_per_s", "1/s"},
		{"error_rate", "ratio"},
		{"peak_rss_mb", "MB"},

		{"engine.submit_ms", "ms"},
		{"engine.drain_ms", "ms"},
		{"engine.replay_submit_ms", "ms"},
		{"engine.replay_drain_ms", "ms"},
		{"engine.inline_fanouts", "count"},
		{"engine.memo_hit_ratio", "ratio"},
		{"engine.dedup_ratio", "x"},
		{"engine.simulated", "count"},
		{"engine.store_hits", "count"},
		{"engine.queue_wait_ms_p50", "ms"},
		{"engine.queue_wait_ms_p99", "ms"},
		{"engine.utilization", "ratio"},
		{"engine.jobs_speedup", "x"},
		{"grid.cell_run_ms_p50", "ms"},
		{"grid.cell_run_ms_p99", "ms"},

		{"store.open_ms", "ms"},
		{"store.close_ms", "ms"},
		{"store.put_us_p50", "us"},
		{"store.put_us_p99", "us"},
		{"store.get_batch_ms", "ms"},
		{"store.link_batch_ms", "ms"},
		{"store.disk_mb", "MB"},
		{"store.sidecar_hit_ratio", "ratio"},
		{"store.put_errors", "count"},

		{"checkpoint.hit_ratio", "ratio"},
		{"sim.cycles", "count"},
		{"harness.render_ms", "ms"},
		{"harness.last_exp_s", "s"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"harness.exp." + id + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"server.ttfb_ms_p50", "ms"},
		metricDef{"server.response_kb_p50", "KB"},
		metricDef{"server.rejected", "count"},
		metricDef{"server.timed_out", "count"},

		metricDef{"optimize.search_ms", "ms"},
		metricDef{"optimize.evaluated", "count"},
		metricDef{"optimize.cells_simulated", "count"},
		metricDef{"kernel.lower_ms", "ms"},
		metricDef{"attacks.classify_ms", "ms"},

		metricDef{"go.alloc_mb_per_iter", "MB"},
		metricDef{"go.gc_cpu_fraction", "ratio"},
		metricDef{"go.gc_cycles_per_iter", "count"},
	)
	for _, p := range profPackages {
		defs = append(defs, metricDef{"prof." + p + "_pct", "%"})
	}
	return append(defs,
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.ref_ms", "ms"},
	)
}()

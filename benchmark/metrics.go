package main

// metricDecl declares one metric the benchmark prints. The names are the
// contract later issues cite.
type metricDecl struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Home names the workload whose traced batch or probes measure a
	// per-layer metric; "" means the workload the run was asked for.
	Home string
}

// endToEnd are the metrics every workload reports from its untraced runs;
// they are BENCHMARK.json's end_to_end list.
var endToEnd = []metricDecl{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// endToEndSome are end-to-end metrics only some workloads define, so the
// driver's contract (every end-to-end metric on every workload, never 0)
// cannot carry them: the full report prints them per workload with these
// bounds, and BENCHMARK.json lists the last three among per_layer.
var endToEndSome = []metricDecl{
	{Name: "fail_frac", Unit: "frac", Better: "lower", Bound: 0},
	{Name: "scale_eff", Unit: "frac", Better: "higher", Bound: 0.10}, // fabric_fine
	{Name: "sim_relerr", Unit: "frac", Better: "lower", Bound: 0.10}, // flow_sim
	{Name: "ci_rel", Unit: "frac", Better: "lower", Bound: 0.10},     // flow_sim, chunk_sim
}

// endToEndAll is what the full report prints per workload, where defined.
var endToEndAll = append(append([]metricDecl{}, endToEnd...), endToEndSome...)

// perLayer are the metrics of single layers (layer = module name), measured
// in the traced run by timing calls into public functions.
var perLayer = []metricDecl{
	// numeric/ode, cmfsd, scheme
	{Name: "ode.rhs_evals_per_solve", Unit: "count", Better: "lower", Home: "fluid_cold"},
	{Name: "scheme.solve_ms_p50", Unit: "ms", Better: "lower", Home: "fluid_cold"},
	{Name: "scheme.solve_ms_max", Unit: "ms", Better: "lower", Home: "fluid_cold"},
	{Name: "scheme.closedform_us", Unit: "us", Better: "lower", Home: "fluid_warm"},
	// runner
	{Name: "runner.pool_overhead_us", Unit: "us", Better: "lower", Home: "fluid_warm"},
	{Name: "runner.cache.mem_hit_ns", Unit: "ns", Better: "lower", Home: "fluid_warm"},
	{Name: "runner.cellvalue.codec_us", Unit: "us", Better: "lower", Home: "fluid_warm"},
	{Name: "runner.cache.solves", Unit: "count", Better: "lower"},
	{Name: "runner.cache.mem_hits", Unit: "count", Better: "higher"},
	{Name: "runner.cache.disk_hits", Unit: "count", Better: "higher"},
	{Name: "runner.speedup_w", Unit: "x", Better: "higher"},
	{Name: "runner.jobspec.validate_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "runner.jobspec.canonical_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "runner.jobspec.parse_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "runner.jobspec.fingerprint_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	// runner/diskcache
	{Name: "diskcache.store.get_us", Unit: "us", Better: "lower", Home: "fluid_warm"},
	{Name: "diskcache.store.put_us", Unit: "us", Better: "lower", Home: "fluid_warm"},
	{Name: "diskcache.store.entry_bytes", Unit: "bytes", Better: "lower", Home: "fluid_warm"},
	{Name: "diskcache.checkpoint.put_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "diskcache.checkpoint.get_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "diskcache.checkpoint.entry_bytes", Unit: "bytes", Better: "lower", Home: "fabric_fine"},
	{Name: "diskcache.samples.put_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "diskcache.samples.get_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "diskcache.samples.entry_bytes", Unit: "bytes", Better: "lower", Home: "fabric_fine"},
	// eventsim
	{Name: "eventsim.run_ms.MTCD", Unit: "ms", Better: "lower", Home: "flow_sim"},
	{Name: "eventsim.run_ms.MTSD", Unit: "ms", Better: "lower", Home: "flow_sim"},
	{Name: "eventsim.run_ms.MFCD", Unit: "ms", Better: "lower", Home: "flow_sim"},
	{Name: "eventsim.run_ms.CMFSD", Unit: "ms", Better: "lower", Home: "flow_sim"},
	{Name: "eventsim.users_per_s", Unit: "1/s", Better: "higher", Home: "flow_sim"},
	{Name: "eventsim.alloc_kb_per_run", Unit: "kB", Better: "lower", Home: "flow_sim"},
	{Name: "eventsim.tiny_run_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	// swarm
	{Name: "swarm.small.peer_rounds_per_s", Unit: "1/s", Better: "higher", Home: "chunk_sim"},
	{Name: "swarm.large.peer_rounds_per_s", Unit: "1/s", Better: "higher", Home: "chunk_sim"},
	{Name: "swarm.large_over_small", Unit: "x", Better: "higher", Home: "chunk_sim"},
	{Name: "swarm.chunks_per_s", Unit: "1/s", Better: "higher", Home: "chunk_sim"},
	{Name: "swarm.alloc_mb_per_run", Unit: "MB", Better: "lower", Home: "chunk_sim"},
	// replica, sim
	{Name: "replica.sample.encode_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "replica.sample.decode_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "replica.sample.bytes", Unit: "bytes", Better: "lower", Home: "fabric_fine"},
	{Name: "replica.reduce_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "sim.reducejob_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "sim.evaluate_overhead_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "sim.sampleref_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	// fabric
	{Name: "fabric.requests_per_cell", Unit: "count", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.lease_rtt_ms_p50", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.complete_rtt_ms_p50", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.complete_rtt_ms_p99", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.complete_handler_ms_p50", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.complete_handler_ms_p99", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.complete_direct_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.entry.codec_us", Unit: "us", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.worker_busy_frac", Unit: "frac", Better: "higher", Home: "fabric_fine"},
	{Name: "fabric.idle_polls", Unit: "count", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.idle_hint_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.leases_expired", Unit: "count", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.duplicates", Unit: "count", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.retries", Unit: "count", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.telemetry_push_ms_p50", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "fabric.resume_cells_per_s", Unit: "1/s", Better: "higher", Home: "fabric_fine"},
	// obs
	{Name: "obs.snapshot.encode_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "obs.snapshot.decode_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "obs.snapshot.bytes", Unit: "bytes", Better: "lower", Home: "fabric_fine"},
	{Name: "obs.merge_ms", Unit: "ms", Better: "lower", Home: "fabric_fine"},
	{Name: "obs.merge_alloc_mb", Unit: "MB", Better: "lower", Home: "fabric_fine"},
	// harness
	{Name: "bench.attributed_frac", Unit: "frac", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	// End-to-end metrics that only their home workload defines (see
	// endToEndSome); chunk_sim's ci_rel needs a name of its own here
	// because this table is flat.
	{Name: "scale_eff", Unit: "frac", Better: "higher", Home: "fabric_fine"},
	{Name: "sim_relerr", Unit: "frac", Better: "lower", Home: "flow_sim"},
	{Name: "ci_rel", Unit: "frac", Better: "lower", Home: "flow_sim"},
	{Name: "ci_rel.chunk_sim", Unit: "frac", Better: "lower", Home: "chunk_sim"},
}

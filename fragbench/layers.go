package main

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// endToEnd is every end-to-end metric an untraced run reports, in the
// order BENCHMARK.json lists them. Each workload maps its own figures
// onto them: ops_per_s is MD steps, gradient evaluations or served jobs
// per second, op_p50_ms the median time of one such operation.
var endToEnd = []layerMetric{{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}}

// fragmentOrders are the suffixes of the replayed per-fragment layers.
var fragmentOrders = []string{"monomer", "dimer", "trimer", "urea"}

// layerMetrics is every per-layer metric a traced run reports, in the
// order BENCHMARK.json lists them. A layer a workload does not exercise,
// or that runs where the benchmark cannot time it from outside (the
// served jobs' own engines), reports 0.
func layerMetrics() []layerMetric {
	ms := []layerMetric{{"potential.evals", "count"}}
	for _, o := range fragmentOrders {
		ms = append(ms, layerMetric{"potential.eval_p50_s." + o, "s"})
	}
	ms = append(ms,
		layerMetric{"potential.eval_p50_us", "us"},
		layerMetric{"potential.busy_frac", "1"},
		layerMetric{"coord.dispatches", "count"},
		layerMetric{"coord.overhead_us_per_task", "us"},
		layerMetric{"coord.retries", "count"},
		layerMetric{"coord.speculated", "count"},
		layerMetric{"sched.scf_iters_per_eval", "count"},
		layerMetric{"warmstart.hit_ratio", "1"},
		layerMetric{"warmstart.skips", "count"},
		layerMetric{"fragment.build_s", "s"},
		layerMetric{"fragment.polymers", "count"},
		layerMetric{"fragment.extract_us_p50", "us"},
		layerMetric{"neighbor.pairs_s", "s"},
		layerMetric{"neighbor.triples_s", "s"},
	)
	for _, o := range fragmentOrders {
		for _, l := range []layerMetric{
			{"basis.build_s", "s"}, {"integrals.1e_s", "s"}, {"integrals.3c_s", "s"},
			{"integrals.2c_s", "s"}, {"metric.invsqrt_s", "s"}, {"metric.share", "1"},
			{"scf.self_s", "s"}, {"scf.iters", "count"}, {"mp2.energy_s", "s"},
			{"mp2.gradient_s", "s"}, {"integrals.3c_deriv_s", "s"}, {"integrals.2c_deriv_s", "s"},
			{"gemm.gflop", "GFLOP"}, {"gemm.gflop_per_s", "GFLOP/s"}, {"alloc_mb", "MB"},
		} {
			ms = append(ms, layerMetric{l.name + "." + o, l.unit})
		}
	}
	return append(ms,
		layerMetric{"autotune.shapes", "count"},
		layerMetric{"autotune.unlocked", "count"},
		layerMetric{"serve.submit_ms_p50", "ms"},
		layerMetric{"serve.queue_ms_p50", "ms"},
		layerMetric{"serve.http_errors", "count"},
		layerMetric{"resilience.ck_write_ms_p50", "ms"},
		layerMetric{"resilience.state_bytes_per_job", "B"},
		layerMetric{"runtime.alloc_mb_per_step", "MB"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"check.max_abs_dE_ha", "Ha"},
		layerMetric{"trace.overhead_frac", "1"},
	)
}

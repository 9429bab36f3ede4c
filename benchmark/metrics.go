package main

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (plus direction and bound); TestBenchmarkJSONMatches keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all of
// it from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // input preparation (generate, split, write, load) + server start (write artifact, spawn, /readyz), each the phase figure of five samples
	{"embed_wall_s", "s"}, // lightne.Embed, the phase figure of all reps
}

// perLayer comes from the traced run: spans around each layer's public
// functions on the workload's own path, probes at the run's own shapes for
// the layers off it.
var perLayer = []metricDef{
	{"graph.gen_s", "s"}, {"graph.load_text_s", "s"}, {"graph.load_mmap_s", "s"}, {"graph.adj_mb", "MB"},
	{"compress.build_s", "s"}, {"compress.ratio", "ratio"}, {"compress.decode_marcs_per_s", "Marc/s"},
	{"sampler.sample_s", "s"}, {"sampler.trials", "count"}, {"sampler.heads", "count"},
	{"sampler.heads_per_s", "1/s"}, {"sampler.peak_table_mb", "MB"},
	{"hashtable.drain_csr_s", "s"}, {"hashtable.entries", "count"}, {"hashtable.entries_per_head", "ratio"},
	{"hashtable.reinsert_mops", "Mop/s"},
	{"netsmf.scale_trunclog_s", "s"}, {"netsmf.nnz_kept", "count"}, {"netsmf.keep_frac", "ratio"},
	{"sparse.spmm_s", "s"}, {"sparse.spmm_gflops_computed", "Gflop/s"},
	{"dense.qr_s", "s"}, {"dense.qr_gflops_computed", "Gflop/s"}, {"dense.matmul_s", "s"},
	{"dense.matmul_atb_s", "s"}, {"dense.small_svd_s", "s"},
	{"svd.rsvd_s", "s"}, {"svd.embed_from_svd_s", "s"}, {"svd.sketch_absorb_s", "s"},
	{"svd.sketch_factorize_s", "s"}, {"svd.kernel_model_cover", "ratio"}, {"svd.sigma_relerr_vs_rsvd", "ratio"},
	{"prone.propagate_s", "s"},
	{"io.write_embedding_s", "s"}, {"io.read_embedding_s", "s"}, {"io.artifact_mb", "MB"},
	{"eval.linkpred_auc", "auc"},
	{"core.embed_s", "s"}, {"core.embed_raw_s", "s"}, {"core.peak_rss_mb", "MB"}, {"core.accounted_frac", "ratio"}, {"core.cpu_over_wall", "ratio"},
	{"core.heap_hwm_mb", "MB"}, {"core.total_alloc_mb", "MB"}, {"core.mallocs", "count"},
	{"core.gc_pause_ms", "ms"}, {"core.planner_pred_mb", "MB"}, {"core.planner_ratio", "ratio"},
	{"cli.cold_wall_s", "s"}, {"cli.sys_s", "s"}, {"cli.minor_faults", "count"}, {"cli.max_rss_mb", "MB"},
	{"quant.build_s", "s"}, {"quant.index_mb", "MB"},
	{"ann.build_s", "s"}, {"ann.search_us", "us"}, {"ann.exact_topk_us", "us"},
	{"ann.scanned_frac", "ratio"}, {"ann.list_imbalance", "ratio"}, {"ann.recall_at_10", "recall"},
	{"serve.ready_s", "s"}, {"serve.qps", "req/s"}, {"serve.p50_ms", "ms"}, {"serve.p95_ms", "ms"}, {"serve.search_us", "us"}, {"serve.handler_us", "us"}, {"serve.net_overhead_us", "us"},
	{"serve.neighbors_p50_ms", "ms"}, {"serve.batch16_p50_ms", "ms"}, {"serve.embedding_p50_ms", "ms"},
	{"serve.p99_ms", "ms"}, {"serve.p999_ms", "ms"}, {"serve.swap_s", "s"}, {"serve.swaps", "count"}, {"serve.swap_p95_ms", "ms"},
	{"serve.shed_503", "count"}, {"serve.max_rss_mb", "MB"},
	{"noise.ref_s", "s"}, {"noise.steal_frac", "ratio"}, {"noise.rep_spread_frac", "ratio"},
	{"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"

	"lightne"
	"lightne/internal/netsmf"
	"lightne/internal/prone"
)

const tracedReps = 3

// traceLayers is the traced half of a -trace 1 run: recomposed embeds with
// spans, the correctness checks that tie them to the untraced run, the
// kernel, table, graph, I/O and serving probes, and one cold cmd/lightne
// child. It fills m with the per-layer metrics of the batch side.
func traceLayers(o options, tr *tracer, in *inputs, ep *embedPhase, c *checks, m map[string]float64) error {
	cfg := o.w.config()
	cfg.Seed = o.seed
	reps := tracedReps
	if o.smoke {
		reps = 1
	}

	series := make(map[string][]float64)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var st *staged
	for r := 0; r < reps; r++ {
		runtime.GC()
		base := heapObjects()
		poll := startHeapPoller()
		u0 := readUsage()
		var err error
		if st, err = stagedEmbed(tr, r, in.g, cfg); err != nil {
			return err
		}
		u1 := readUsage()
		hwm := poll.finish()

		spans := tr.snapshot()
		root := spans[st.root]
		add("core.embed_s", root.End-root.Start)
		add("core.accounted_frac", accountedFrac(spans, st.root))
		for name, s := range sumByName(spans, r) {
			if name != "core.embed" {
				add(name+"_s", s)
			}
		}
		add("core.cpu_over_wall", (u1.cpu-u0.cpu)/u1.wall.Sub(u0.wall).Seconds())
		add("core.heap_hwm_mb", (float64(hwm)-float64(base))/mb)
		add("core.total_alloc_mb", float64(u1.totalAlloc-u0.totalAlloc)/mb)
		add("core.mallocs", float64(u1.mallocs-u0.mallocs))
		add("core.gc_pause_ms", float64(u1.pauseNs-u0.pauseNs)/1e6)

		// The recomposition must be the same computation as lightne.Embed.
		want := ep.res
		c.check(st.stats.Trials == want.SampleStats.Trials && st.stats.Heads == want.SampleStats.Heads && st.nnz == want.SparsifierNNZ,
			"traced rep %d: trials/heads/nnz %d/%d/%d, lightne.Embed gave %d/%d/%d", r,
			st.stats.Trials, st.stats.Heads, st.nnz, want.SampleStats.Trials, want.SampleStats.Heads, want.SparsifierNNZ)
		// The rSVD path folds partial sums in schedule order (ROADMAP item
		// 1), so it agrees to rounding; the sketch path is bit-stable.
		tol := 1e-6
		if cfg.StreamedSVD {
			tol = 0
		}
		c.check(sigmaWithin(st.sigma, want.Sigma, tol), "traced rep %d: sigma differs from lightne.Embed beyond %g relative", r, tol)
	}
	for name, vs := range series {
		m[name] = median(vs)
	}
	printStageRanking(tr.snapshot(), st.root)
	m["trace.overhead_frac"] = m["core.embed_s"]/ep.rawS - 1

	entries := float64(len(st.cols))
	m["sampler.trials"] = float64(st.stats.Trials)
	m["sampler.heads"] = float64(st.stats.Heads)
	m["sampler.heads_per_s"] = float64(st.stats.Heads) / m["sampler.sample_s"]
	m["sampler.peak_table_mb"] = float64(st.stats.PeakTableBytes) / mb
	m["hashtable.entries"] = entries
	m["hashtable.entries_per_head"] = entries / (2 * float64(st.stats.Heads))
	m["netsmf.nnz_kept"] = float64(st.nnz)
	m["netsmf.keep_frac"] = float64(st.nnz) / entries

	est, err := lightne.EstimateMemory(in.g, cfg)
	if err != nil {
		return err
	}
	// The polled heap excludes the graph (it predates the rep), so the
	// prediction it is held against excludes it too.
	m["core.planner_pred_mb"] = float64(est.Total()-est.GraphBytes-est.AliasTableBytes) / mb
	m["core.planner_ratio"] = m["core.heap_hwm_mb"] / m["core.planner_pred_mb"]

	// Probes: layers off this workload's path are still measured once at
	// its shapes, so every workload reports every per-layer metric.
	m["hashtable.reinsert_mops"] = probeTable(st.rowPtr, st.cols, cfg.Shards)
	mat := st.mat
	if mat == nil {
		if mat, err = netsmf.BuildMatrixCSR(in.g, st.rowPtr, st.cols, st.ws, cfg.NegSamples, st.stats.Trials); err != nil {
			return err
		}
	}
	if err := probeKernels(mat, cfg, m["svd.rsvd_s"], st.sigma, m); err != nil {
		return err
	}
	if cfg.SkipPropagation {
		m["prone.propagate_s"] = timeMedian(1, func() { _, err = prone.Propagate(in.g, st.x, cfg.Propagation) })
		if err != nil {
			return err
		}
	}
	if err := probeGraph(in.train, o.outDir, m); err != nil {
		return err
	}
	if err := probeIO(ep.res.Embedding, o.outDir, m); err != nil {
		return err
	}
	if err := probeServe(ep.res.Embedding, in.queryable, o.seed, o.smoke, m); err != nil {
		return err
	}
	cliAUC, err := coldCLI(o.binDir, o.outDir, o.w, in, o.seed, m)
	if err != nil {
		return err
	}
	c.check(math.Abs(cliAUC-ep.auc) <= 0.01, "cmd/lightne artifact AUC %.4f differs from in-process %.4f by more than 0.01", cliAUC, ep.auc)

	gateMiss := func(ok bool, format string, args ...any) {
		if !ok {
			fmt.Fprintf(os.Stderr, "TRACE GATE MISSED: "+format+"\n", args...)
		}
	}
	gateMiss(m["core.accounted_frac"] >= 0.95, "core.accounted_frac %.3f < 0.95", m["core.accounted_frac"])
	gateMiss(m["svd.kernel_model_cover"] >= 0.9 && m["svd.kernel_model_cover"] <= 1.1, "svd.kernel_model_cover %.3f outside 0.9–1.1", m["svd.kernel_model_cover"])
	gateMiss(m["trace.overhead_frac"] <= 0.05, "trace.overhead_frac %.3f > 0.05", m["trace.overhead_frac"])
	return nil
}

// sigmaWithin reports whether every got[i] is within tol relative of
// want[i] (tol 0 demands equal bits).
func sigmaWithin(got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*math.Abs(want[i]) {
			return false
		}
	}
	return true
}

// printStageRanking lists the stages of one recomposed embed by self time,
// largest first: the order in which the layers are worth attacking.
func printStageRanking(spans []span, root int) {
	self := selfTimes(spans)
	byName := make(map[string]float64)
	for _, s := range spans {
		if s.ID == root || s.Parent == root {
			byName[s.Name] += self[s.ID]
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return byName[names[a]] > byName[names[b]] })
	total := spans[root].End - spans[root].Start
	fmt.Fprintf(os.Stderr, "stages of the last traced embed by self time (%.4f s in all):\n", total)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-24s %8.4f s  %5.1f%%\n", n, byName[n], 100*byName[n]/total)
	}
}

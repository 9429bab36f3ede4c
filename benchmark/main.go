// Command benchmark is the repository's benchmark: one run prepares one
// workload's inputs from a seed, times lightne.Embed in warm repetitions
// beside a reference kernel, starts a lightne-serve child over the embedding,
// checks the outputs, and prints the end-to-end metrics (-trace 0, measured
// in several fresh processes and pooled) or the per-layer metrics of a
// stage-by-stage traced recomposition and a closed-loop query mix (-trace 1)
// as one JSON line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options is one run's settings.
type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	binDir  string // holds the lightne and lightne-serve binaries
	outDir  string // scratch files and the span file
	// smoke is set by the smoke tests only: no reference kernel, minimal
	// repetitions, and an IVF index on graphs below the server's default
	// -ann-min-rows.
	smoke bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// legs is how many fresh processes one untraced run measures in, and how
// many times the traced run repeats each half of the set-up. A process keeps
// a speed of its own for as long as it lives — 50-s runs of identical code
// differed by 6.3 % (standard deviation) where the pooled reps of five 10-s
// processes run beside them differed by 3.3 % — so a run's reps are spread
// over several processes and pooled. Each leg prepares the inputs once and
// starts the server once, which makes legs the sample count of setup_s too.
const legs = 5

// leg is what one measuring process contributes to an untraced run. Samples
// travel as {raw, net, ref, stolen}.
type leg struct {
	Prep, Embed, Start [][4]float64
	Attempted, Failed  int
	Notes              []string
}

func toWire(samples []sample) [][4]float64 {
	out := make([][4]float64, len(samples))
	for i, s := range samples {
		out[i] = [4]float64{s.raw, s.net, s.ref, s.stolen}
	}
	return out
}

func fromWire(rows [][4]float64) []sample {
	out := make([]sample, len(rows))
	for i, r := range rows {
		out[i] = sample{raw: r[0], net: r[1], ref: r[2], stolen: r[3]}
	}
	return out
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// embedLeg is the part every measuring process starts with: a meter, the
// inputs prepared preps times, and the embed phase over budget.
type embedLeg struct {
	mt       *meter
	c        *checks
	in       *inputs
	prepReps []sample
	ep       *embedPhase
}

func startLeg(o options, preps int, budget time.Duration) (*embedLeg, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	l := &embedLeg{c: &checks{}, mt: newMeter(nil, stolenCPUSeconds, o.smoke)}
	var refMB float64
	if !o.smoke {
		k, err := newRefKernel()
		if err != nil {
			return nil, err
		}
		l.mt.ref, refMB = k.run, k.residentMB()
	}

	// Set-up: prepare the inputs, timed like every other rep; the last
	// preparation is the one the run uses.
	var err error
	l.prepReps, err = l.mt.measure(0, preps, preps, nil, func() (float64, error) {
		if l.in != nil {
			l.in.release()
		}
		var err error
		if l.in, err = prepareInputs(o.w, o.seed, o.outDir); err != nil {
			return 0, err
		}
		return l.in.total(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	logf("%s seed %d: %d vertices, %d arcs, %d held-out edges; GOMAXPROCS %d of %d CPUs",
		o.w.name, o.seed, l.in.n, l.in.g.NumEdges(), len(l.in.test), runtime.GOMAXPROCS(0), runtime.NumCPU())

	warmups, minReps := 1, 5
	if o.smoke {
		warmups, minReps = 0, 1
	}
	l.ep, err = runEmbedPhase(l.mt, o.w, l.in, o.seed, budget, warmups, minReps, refMB, l.c)
	if err != nil {
		l.in.release()
		return nil, fmt.Errorf("embed phase: %w", err)
	}
	logf("embed: %.4f s (median of %d reps net of stolen time %.4f s, machine-speed factor %.3f; %d warm-up); AUC %.4f; peak RSS %.1f MB",
		l.ep.wallS, len(l.ep.reps), median(pick(l.ep.reps, netOf)), speed(l.ep.reps), warmups, l.ep.auc, l.ep.rssMB)
	return l, nil
}

// measureLeg is one leg in this process: inputs prepared once, embed reps
// over budget, the server started once.
func measureLeg(o options, budget time.Duration) (*leg, error) {
	l, err := startLeg(o, 1, budget)
	if err != nil {
		return nil, err
	}
	defer l.in.release()
	startReps, srv, err := startServers(l.mt, o, l.ep.res.Embedding, 1)
	if err != nil {
		return nil, fmt.Errorf("starting lightne-serve: %w", err)
	}
	srv.stop()
	return &leg{Prep: toWire(l.prepReps), Embed: toWire(l.ep.reps), Start: toWire(startReps),
		Attempted: l.c.attempted, Failed: l.c.failed, Notes: l.c.notes}, nil
}

// spawnLeg runs measureLeg in a fresh process of this program and reads the
// leg from the last line of its standard output.
func spawnLeg(o options, budget time.Duration) (*leg, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-leg", "-workload", o.w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64), "-bin", o.binDir, "-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var l leg
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		return nil, fmt.Errorf("last line is not a leg: %w", err)
	}
	return &l, nil
}

// run executes one workload and returns its report; progress and the
// sample counts behind every timing go to stderr.
func run(o options) (*report, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(o, budget)
	}
	// The smoke test measures its one leg in the test process.
	measure, n := spawnLeg, legs
	if o.smoke {
		measure, n = measureLeg, 1
	}
	var prep, embed, start []sample
	c := &checks{}
	for i := 0; i < n; i++ {
		l, err := measure(o, budget/time.Duration(n))
		if err != nil {
			return nil, fmt.Errorf("leg %d: %w", i+1, err)
		}
		prep, embed, start = append(prep, fromWire(l.Prep)...), append(embed, fromWire(l.Embed)...), append(start, fromWire(l.Start)...)
		c.attempted, c.failed, c.notes = c.attempted+l.Attempted, c.failed+l.Failed, append(c.notes, l.Notes...)
	}
	logf("embed: %.4f s (median of %d reps in %d processes, net of stolen time %.4f s, machine-speed factor %.3f; spread of the reps %.1f %%)",
		phaseSeconds(embed), len(embed), n, median(pick(embed, netOf)), speed(embed), 100*quartileSpread(pick(embed, netOf)))
	logf("set-up: inputs %.4f s, server start %.4f s (medians of %d and %d); %.1f %% of the CPUs' time stolen during the timed reps",
		phaseSeconds(prep), phaseSeconds(start), len(prep), len(start), 100*stolenShare(append(append(append([]sample(nil), prep...), embed...), start...)))
	return finish(c, endToEnd, map[string]float64{
		"setup_s":      phaseSeconds(prep) + phaseSeconds(start),
		"embed_wall_s": phaseSeconds(embed),
	}), nil
}

// finish turns the checks and the measured values into the report.
func finish(c *checks, defs []metricDef, m map[string]float64) *report {
	for _, n := range c.notes {
		logf("FAILED: %s", n)
	}
	rep := &report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	fill(rep, defs, m)
	return rep
}

// runTraced is the -trace 1 run, all in this process: a fifth of the
// measuring time on untraced reps (the reference the tracing overhead is
// measured against), the traced embeds and probes, then half of it on
// serving.
func runTraced(o options, budget time.Duration) (*report, error) {
	tr := newTracer()
	m := make(map[string]float64)
	setups := legs
	if o.smoke {
		setups = 1
	}
	l, err := startLeg(o, setups, budget/5)
	if err != nil {
		return nil, err
	}
	in, ep, c := l.in, l.ep, l.c
	defer in.release()
	if err := traceLayers(o, tr, in, ep, c, m); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}

	startReps, srv, err := startServers(l.mt, o, ep.res.Embedding, setups)
	if err != nil {
		return nil, fmt.Errorf("starting lightne-serve: %w", err)
	}
	timedReps := append(append(append([]sample(nil), l.prepReps...), ep.reps...), startReps...)
	logf("set-up: inputs %.4f s, server start %.4f s (medians of %d and %d); %.1f %% of the CPUs' time stolen during the timed reps",
		phaseSeconds(l.prepReps), phaseSeconds(startReps), len(l.prepReps), len(startReps), 100*stolenShare(timedReps))

	readyS := srv.readyS
	sp, err := runServePhase(srv, o, ep.res.Embedding, in.queryable, budget/2, tr, c)
	if err != nil {
		return nil, fmt.Errorf("serve phase: %w", err)
	}
	all := sp.pooled.all()
	logf("serve: %.0f req/s, p50 %.3f ms, p95 %.3f ms (%d requests in %d segments); recall@10 %.4f over %d answers; %d swaps",
		sp.qps, percentile(all, 0.5)*1e3, percentile(all, 0.95)*1e3, len(all), sp.segments, sp.recall, sp.recallAnswers, sp.swaps)
	if sp.recall < recallGoal {
		logf("KNOWN DEFECT (not counted as a failure, see README.md): recall@10 %.4f with the server's default -nprobe is below the %.2f the issue asks for", sp.recall, recallGoal)
	}

	m["graph.gen_s"] = in.genS
	m["graph.adj_mb"] = float64(in.g.SizeBytes()) / mb
	m["eval.linkpred_auc"] = ep.auc
	m["core.embed_raw_s"] = ep.rawS
	m["core.peak_rss_mb"] = ep.rssMB
	m["serve.ready_s"] = readyS
	serveLayerMetrics(sp, m)
	m["noise.ref_s"] = median(pick(ep.reps, refOf))
	m["noise.steal_frac"] = stolenShare(timedReps)
	m["noise.rep_spread_frac"] = quartileSpread(pick(ep.reps, netOf))
	m["trace.spans"] = float64(len(tr.snapshot()))
	if err := tr.write(filepath.Join(o.outDir, "trace-"+o.w.name+".json")); err != nil {
		return nil, err
	}
	return finish(c, perLayer, m), nil
}

// fill copies the listed metrics out of m; one the run did not produce is a
// bug in the harness, not a zero.
func fill(rep *report, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not measured")
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

// serveLayerMetrics derives the serving layer's metrics from the segments.
func serveLayerMetrics(sp *servePhase, m map[string]float64) {
	p := sp.pooled
	all := p.all()
	m["serve.qps"] = sp.qps
	m["serve.p50_ms"] = percentile(all, 0.5) * 1e3
	m["serve.p95_ms"] = percentile(all, 0.95) * 1e3
	m["ann.recall_at_10"] = sp.recall
	m["serve.neighbors_p50_ms"] = percentile(p.lat[opNeighbors], 0.5) * 1e3
	m["serve.batch16_p50_ms"] = percentile(p.lat[opBatch], 0.5) * 1e3
	m["serve.embedding_p50_ms"] = percentile(p.lat[opEmbedding], 0.5) * 1e3
	m["serve.p99_ms"] = percentile(all, 0.99) * 1e3
	m["serve.p999_ms"] = percentile(all, 0.999) * 1e3
	m["serve.swap_s"] = sp.swapS
	m["serve.swaps"] = float64(sp.swaps)
	m["serve.swap_p95_ms"] = percentile(sp.swapLoad.all(), 0.95) * 1e3
	m["serve.shed_503"] = float64(p.shed + sp.swapLoad.shed)
	m["serve.max_rss_mb"] = sp.rssMB
	m["serve.net_overhead_us"] = m["serve.neighbors_p50_ms"]*1e3 - m["serve.handler_us"]
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: embed-default or embed-stream (BENCHMARK.json), or embed-sample-heavy")
		seed      = flag.Uint64("seed", 1, "seed for every generated input: graph, edge split, query stream, Config.Seed")
		seconds   = flag.Float64("seconds", 15, "measuring time: embed reps plus serving segments")
		trace     = flag.Int("trace", 0, "1 = traced stage-by-stage run printing the per-layer metrics; 0 = end-to-end metrics")
		binDir    = flag.String("bin", "", "directory holding the lightne and lightne-serve binaries (run.sh builds them)")
		outDir    = flag.String("out", "benchmark/out", "directory for scratch files and trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times in two interleaved sets and compare the sets against the bounds")
		runs      = flag.Int("runs", 6, "runs per workload for -selfcheck (alternating between set A and set B, one seed each)")
		bounds    = flag.String("bounds", "BENCHMARK.json", "file -selfcheck reads the metric bounds from")
		oneLeg    = flag.Bool("leg", false, "internal: measure one leg of an untraced run over -seconds and print its samples")
	)
	flag.Parse()
	if *binDir == "" {
		fatal(fmt.Errorf("-bin is required (run the benchmark through benchmark/run.sh)"))
	}
	if *selfcheck {
		ok, err := selfCheck(*bounds, *binDir, *outDir, *seed, *seconds, *runs)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, binDir: *binDir, outDir: *outDir}
	if *oneLeg {
		l, err := measureLeg(o, time.Duration(o.seconds*float64(time.Second)))
		if err != nil {
			fatal(err)
		}
		printLine(l)
		return
	}
	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	printLine(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// printLine writes v as one line of JSON, the last line of standard output.
func printLine(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

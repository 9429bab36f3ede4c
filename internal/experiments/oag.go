package experiments

import (
	"fmt"
	"time"

	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/netsmf"
	"lightne/internal/prone"
	"lightne/internal/sampler"
)

// rsvdOversample and rsvdPowerIters are applied uniformly to every system
// in the comparison experiments: at replica scale (thousands of vertices
// instead of tens of millions) the rank-d sketch needs subspace iteration
// to resolve the noisy spectrum, and giving all systems identical SVD
// quality keeps the comparisons about the matrices, not the solver.
const (
	rsvdOversample = 8
	rsvdPowerIters = 2
)

// oagRatios are the label ratios for the Table 4 replica. The paper uses
// 0.001%–1% on 67M vertices; at 1/10000 scale the same *training-set sizes*
// correspond to these ratios on 6000 labeled-ish vertices.
var oagRatios = []float64{0.01, 0.03, 0.10, 0.30}

// oagSystem is one row of Table 4.
type oagSystem struct {
	name  string
	embed func(*graph.Graph, Options) (*dense.Matrix, core.Timing, error)
}

func lightNESystem(name string, mult float64) oagSystem {
	return oagSystem{name: name, embed: func(g *graph.Graph, opt Options) (*dense.Matrix, core.Timing, error) {
		cfg := core.DefaultConfig(32)
		cfg.SampleMultiple = mult
		if opt.Quick {
			cfg.SampleMultiple = mult / 4
		}
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 11
		res, err := core.Embed(g, cfg)
		if err != nil {
			return nil, core.Timing{}, err
		}
		return res.Embedding, res.Timing, nil
	}}
}

func netSMFSystem(mult float64) oagSystem {
	return oagSystem{name: fmt.Sprintf("NetSMF (M=%gTm)", mult), embed: func(g *graph.Graph, opt Options) (*dense.Matrix, core.Timing, error) {
		cfg := core.NetSMFConfig(32)
		cfg.SampleMultiple = mult
		if opt.Quick {
			cfg.SampleMultiple = mult / 4
		}
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 12
		res, err := core.Embed(g, cfg)
		if err != nil {
			return nil, core.Timing{}, err
		}
		return res.Embedding, res.Timing, nil
	}}
}

func proNESystem() oagSystem {
	return oagSystem{name: "ProNE+", embed: func(g *graph.Graph, opt Options) (*dense.Matrix, core.Timing, error) {
		cfg := prone.DefaultConfig(32)
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 13
		res, err := prone.Run(g, cfg)
		if err != nil {
			return nil, core.Timing{}, err
		}
		return res.Embedding, core.Timing{SVD: res.Timing.SVD, Propagation: res.Timing.Propagation}, nil
	}}
}

// E4OAGTable4 regenerates Table 4: Micro- and Macro-F1 of NetSMF, ProNE+,
// LightNE-Small and LightNE-Large on the OAG replica across label ratios.
func E4OAGTable4(opt Options) (*Report, error) {
	start := time.Now()
	ds, err := gen.OAGLike(opt.Seed)
	if err != nil {
		return nil, err
	}
	systems := []oagSystem{
		netSMFSystem(8),
		proNESystem(),
		lightNESystem("LightNE-Small", 0.1),
		lightNESystem("LightNE-Large", 20),
	}
	var rows [][]string
	for _, sys := range systems {
		t0 := time.Now()
		x, _, err := sys.embed(ds.Graph, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys.name, err)
		}
		elapsed := time.Since(t0)
		microRow := []string{sys.name, "Micro-F1", dur(elapsed)}
		macroRow := []string{sys.name, "Macro-F1", ""}
		for _, ratio := range oagRatios {
			cr, err := eval.NodeClassification(x, ds.Labels.Of, ds.Labels.NumClasses, ratio, opt.Seed+14, eval.DefaultTrain())
			if err != nil {
				return nil, err
			}
			microRow = append(microRow, pct(cr.MicroF1))
			macroRow = append(macroRow, pct(cr.MacroF1))
		}
		rows = append(rows, microRow, macroRow)
	}
	headers := []string{"system", "metric", "time"}
	for _, r := range oagRatios {
		headers = append(headers, fmt.Sprintf("@%g%%", 100*r))
	}
	return &Report{
		ID:       "E4",
		Title:    "Table 4: OAG-like node classification (4 systems x label ratios)",
		PaperRef: "Micro@1%: NetSMF(8Tm) 38.9 (22.4h), ProNE+ 31.5 (21min), LightNE-Small 32.4 (20.9min), LightNE-Large 55.2 (1.53h); LightNE-Large dominates",
		Headers:  headers,
		Rows:     rows,
		Notes: []string{
			"oag-like replica at ~1/10000 scale; ratios rescaled so absolute training-set sizes match the paper's regime",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E5TradeoffCurve regenerates Figure 2: the efficiency-effectiveness
// trade-off — F1 vs wall-clock as LightNE's sample budget sweeps 0.1-20·Tm
// and NetSMF's sweeps 1-8·Tm, with ProNE+ as a single point.
func E5TradeoffCurve(opt Options) (*Report, error) {
	start := time.Now()
	ds, err := gen.OAGLike(opt.Seed)
	if err != nil {
		return nil, err
	}
	lightMults := []float64{0.1, 0.5, 1, 2, 5, 10, 20}
	netsmfMults := []float64{1, 2, 4, 8}
	if opt.Quick {
		lightMults = []float64{0.1, 1, 5}
		netsmfMults = []float64{1, 4}
	}
	ratio := 0.10
	var rows [][]string
	evalOne := func(label string, x *dense.Matrix, elapsed time.Duration) error {
		cr, err := eval.NodeClassification(x, ds.Labels.Of, ds.Labels.NumClasses, ratio, opt.Seed+15, eval.DefaultTrain())
		if err != nil {
			return err
		}
		rows = append(rows, []string{label, dur(elapsed), pct(cr.MicroF1), pct(cr.MacroF1)})
		return nil
	}
	for _, mult := range lightMults {
		cfg := core.DefaultConfig(32)
		cfg.SampleMultiple = mult
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 16
		t0 := time.Now()
		res, err := core.Embed(ds.Graph, cfg)
		if err != nil {
			return nil, err
		}
		if err := evalOne(fmt.Sprintf("LightNE M=%gTm", mult), res.Embedding, time.Since(t0)); err != nil {
			return nil, err
		}
	}
	for _, mult := range netsmfMults {
		t0 := time.Now()
		cfg := core.NetSMFConfig(32)
		cfg.SampleMultiple = mult
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 17
		res, err := core.Embed(ds.Graph, cfg)
		if err != nil {
			return nil, err
		}
		if err := evalOne(fmt.Sprintf("NetSMF M=%gTm", mult), res.Embedding, time.Since(t0)); err != nil {
			return nil, err
		}
	}
	{
		cfg := prone.DefaultConfig(32)
		cfg.Oversample, cfg.PowerIters = rsvdOversample, rsvdPowerIters
		cfg.Seed = opt.Seed + 18
		t0 := time.Now()
		res, err := prone.Run(ds.Graph, cfg)
		if err != nil {
			return nil, err
		}
		if err := evalOne("ProNE+", res.Embedding, time.Since(t0)); err != nil {
			return nil, err
		}
	}
	return &Report{
		ID:       "E5",
		Title:    "Figure 2: efficiency-effectiveness trade-off on OAG-like",
		PaperRef: "LightNE's curve Pareto-dominates both NetSMF and ProNE+: for each, some LightNE configuration is simultaneously faster and more accurate",
		Headers:  []string{"configuration", "time", "Micro-F1@10%", "Macro-F1@10%"},
		Rows:     rows,
		Elapsed:  time.Since(start),
	}, nil
}

// E6TimeBreakdown regenerates Table 5: per-stage running time of
// LightNE-Large, NetSMF, LightNE-Small and ProNE+.
func E6TimeBreakdown(opt Options) (*Report, error) {
	start := time.Now()
	ds, err := gen.OAGLike(opt.Seed)
	if err != nil {
		return nil, err
	}
	systems := []oagSystem{
		lightNESystem("LightNE-Large", 20),
		netSMFSystem(8),
		lightNESystem("LightNE-Small", 0.1),
		proNESystem(),
	}
	var rows [][]string
	for _, sys := range systems {
		_, timing, err := sys.embed(ds.Graph, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys.name, err)
		}
		cell := func(d time.Duration, has bool) string {
			if !has {
				return "NA"
			}
			return dur(d)
		}
		rows = append(rows, []string{
			sys.name,
			cell(timing.Sparsifier, timing.Sparsifier > 0),
			cell(timing.SVD, true),
			cell(timing.Propagation, timing.Propagation > 0),
		})
	}
	return &Report{
		ID:       "E6",
		Title:    "Table 5: running-time breakdown (sparsifier / rSVD / propagation)",
		PaperRef: "LightNE-Large 32.8m/49.9m/8.1m; NetSMF(8Tm) 18h/4h/NA (33x and 4.8x slower); LightNE-Small 1.4m/10.5m/8.2m; ProNE+ NA/12m/8.2m",
		Headers:  []string{"system", "sparsifier", "randomized SVD", "spectral propagation"},
		Rows:     rows,
		Notes: []string{
			"the paper's 33x sparsifier gap came from NetSMF's unoptimized stack (OpenMP+Eigen3 vs GBBS+hashing); here both share this repo's substrate, so the remaining contrast is algorithmic: downsampling lets LightNE-Large draw 2.5x more trials (20Tm vs 8Tm) in comparable wall-clock because cold edges skip their walks",
		},
		Elapsed: time.Since(start),
	}, nil
}

// E7SampleSizeAblation regenerates the §5.2.4 sample-size ablation: how
// much the downsampling and the shared hash table raise the affordable
// sample count under a fixed memory budget.
func E7SampleSizeAblation(opt Options) (*Report, error) {
	start := time.Now()
	ds, err := gen.OAGLike(opt.Seed)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	mult := 4.0
	if opt.Quick {
		mult = 1
	}
	m := netsmf.MFromMultiple(g, 10, mult)

	run := func(downsample bool) (sampler.Stats, error) {
		_, stats, err := sampler.Sample(g, sampler.Config{
			T: 10, M: m, Downsample: downsample, Seed: opt.Seed + 19,
		})
		return stats, err
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}
	off, err := run(false)
	if err != nil {
		return nil, err
	}
	// Thread-local-list memory model (NetSMF's aggregation): every head
	// occupies a 16-byte (key, weight) record until the final merge. The
	// hash-table figure is load-factor-normalized (16 bytes per slot at 7/8
	// load) so power-of-two capacity rounding doesn't mask the reduction.
	tableBytes := func(distinct int) float64 { return float64(distinct) * 16 * 8 / 7 }
	listBytesOn := on.Heads * 16
	listBytesOff := off.Heads * 16
	rows := [][]string{
		{"downsampling ON", f(float64(on.Trials)), f(float64(on.Heads)),
			fmt.Sprintf("%d", on.DistinctEntries), fmt.Sprintf("%.1f MB", tableBytes(on.DistinctEntries)/1e6),
			fmt.Sprintf("%.1f MB", float64(listBytesOn)/1e6)},
		{"downsampling OFF", f(float64(off.Trials)), f(float64(off.Heads)),
			fmt.Sprintf("%d", off.DistinctEntries), fmt.Sprintf("%.1f MB", tableBytes(off.DistinctEntries)/1e6),
			fmt.Sprintf("%.1f MB", float64(listBytesOff)/1e6)},
	}
	notes := []string{
		fmt.Sprintf("downsampling keeps %.1f%% of trials as heads, cutting aggregation memory by %.2fx",
			100*float64(on.Heads)/float64(on.Trials),
			float64(off.Heads)/float64(on.Heads)),
		"hash table stores one slot per distinct edge; per-thread lists store one record per head — the gap is the paper's 56.3% affordable-sample-size gain",
	}
	return &Report{
		ID:       "E7",
		Title:    "Sample-size ablation: downsampling + sparse hashing vs memory",
		PaperRef: "paper: hashing raises affordable samples 56.3% over NetSMF's per-thread sparsifiers; downsampling adds another 60% (8Tm -> 12.5Tm -> 20Tm)",
		Headers:  []string{"configuration", "trials", "heads", "distinct edges", "hash-table mem", "per-thread-list mem"},
		Rows:     rows,
		Notes:    notes,
		Elapsed:  time.Since(start),
	}, nil
}

package sampler

import (
	"fmt"
	"runtime"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/rng"
)

// sampleReference is Sample without buffering or parallelism: one serial
// vertex loop drawing from the same per-vertex RNG streams, handing the
// reference each head's two oriented pairs as it draws them.
func sampleReference(g *graph.Graph, cfg Config, table *refSink) (trials, heads int64) {
	c := cfg.DownsampleC(g.NumVertices())
	perUnit := float64(cfg.M) / g.TotalWeight()
	strengths := g.Strengths()
	var src rng.Source
	for ui := 0; ui < g.NumVertices(); ui++ {
		u := uint32(ui)
		src.Seed(cfg.Seed, uint64(u))
		for i := 0; i < g.Degree(u); i++ {
			v, ew := g.Neighbor(u, i), g.EdgeWeight(u, i)
			perArc := perUnit * ew
			ne := int64(perArc)
			if frac := perArc - float64(ne); frac > 0 && src.Bernoulli(frac) {
				ne++
			}
			pe := 1.0
			if cfg.Downsample {
				pe = ProbW(c, ew, strengths[u], strengths[v])
			}
			trials, heads = referenceTrials(g, table, u, v, ne, pe, cfg.T, &src, trials, heads)
		}
	}
	return trials, heads
}

// sampleArcsReference is SampleArcs without buffering or parallelism,
// handing the reference each head's two oriented pairs as it draws them.
func sampleArcsReference(g *graph.Graph, table *refSink, arcs []graph.Edge, perArc float64, cfg Config) (trials, heads int64) {
	c := cfg.DownsampleC(g.NumVertices())
	base := int64(perArc)
	frac := perArc - float64(base)
	var src rng.Source
	for i, a := range arcs {
		src.Seed(cfg.Seed, uint64(i))
		du, dv := g.Degree(a.U), g.Degree(a.V)
		if du == 0 || dv == 0 {
			continue
		}
		ne := base
		if frac > 0 && src.Bernoulli(frac) {
			ne++
		}
		pe := 1.0
		if c > 0 {
			pe = Prob(c, du, dv)
		}
		trials, heads = referenceTrials(g, table, a.U, a.V, ne, pe, cfg.T, &src, trials, heads)
	}
	return trials, heads
}

// referenceTrials runs one arc's ne trials, handing over every head.
func referenceTrials(g *graph.Graph, table *refSink, u, v uint32, ne int64, pe float64, t int, src *rng.Source, trials, heads int64) (int64, int64) {
	fixed := hashtable.ToFixed(1 / pe)
	for k := int64(0); k < ne; k++ {
		trials++
		if pe < 1 && !src.Bernoulli(pe) {
			continue
		}
		heads++
		ue, ve := PathSample(g, u, v, 1+src.Intn(t), src)
		table.add([]uint64{hashtable.Key(ue, ve), hashtable.Key(ve, ue)}, []uint64{fixed, fixed})
	}
	return trials, heads
}

// TestBufferedSamplersBitIdenticalToPerKey: Sample and SampleArcs buffer
// each worker's one-orientation pairs, and Group groups them. The grouped
// CSR must equal, to the bit, a serial reference drawing the same streams
// and grouping both orientations of every head by the reference sort, for
// every worker count, on an unweighted and a weighted graph, and for
// SampleArcs at a fractional and an integer per-arc rate. It pins the procs clause of the determinism contract (DESIGN.md
// "Numerics") for the per-arc samplers.
func TestBufferedSamplersBitIdenticalToPerKey(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"unweighted", chordGraph(t, 400, 3, 5)},
		{"weighted", weightedChordGraph(t, 400, 3, 5)},
	}
	cfg := Config{T: 5, M: 60_000, Downsample: true, Seed: 21}
	for _, gr := range graphs {
		g, n := gr.g, gr.g.NumVertices()
		var arcs []graph.Edge
		for u := 0; u < n; u++ {
			for i := 0; i < g.Degree(uint32(u)); i++ {
				if v := g.Neighbor(uint32(u), i); uint32(u) < v {
					arcs = append(arcs, graph.Edge{U: uint32(u), V: v})
				}
			}
		}
		var ref refSink
		refTrials, refHeads := sampleReference(g, cfg, &ref)
		want := ref.group(n)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			sink, st, err := Sample(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s procs=%d", gr.name, procs)
			if st.Trials != refTrials || st.Heads != refHeads {
				t.Fatalf("%s: Sample trials/heads %d/%d, reference %d/%d", name, st.Trials, st.Heads, refTrials, refHeads)
			}
			sameCSR(t, name+" Sample", sink, want, n)
		}
		for _, perArc := range []float64{7.5, 7} {
			var refArcs refSink
			arcTrials, arcHeads := sampleArcsReference(g, &refArcs, arcs, perArc, cfg)
			wantArcs := refArcs.group(n)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%s perArc=%g procs=%d", gr.name, perArc, procs)
				keys, fixed, st, err := SampleArcs(g, arcs, perArc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st.Trials != arcTrials || st.Heads != arcHeads {
					t.Fatalf("%s: SampleArcs trials/heads %d/%d, reference %d/%d", name,
						st.Trials, st.Heads, arcTrials, arcHeads)
				}
				sameCSR(t, name+" SampleArcs", Group(keys, fixed, n, &st), wantArcs, n)
			}
		}
	}
}

// drainer is a grouped aggregate that drains to full CSR arrays: a pass's
// upper triangle or a reference's csrView.
type drainer interface {
	DrainCSR(numRows int) ([]int64, []uint32, []float64)
}

// sameCSR fails unless got and want drain to bit-identical CSR arrays.
func sameCSR(t *testing.T, name string, got, want drainer, n int) {
	t.Helper()
	gp, gc, gw := got.DrainCSR(n)
	wp, wc, ww := want.DrainCSR(n)
	if len(gc) == 0 || len(gc) != len(wc) {
		t.Fatalf("%s: nnz %d, reference %d", name, len(gc), len(wc))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: rowPtr[%d]=%d, reference %d", name, i, gp[i], wp[i])
		}
	}
	for i := range wc {
		if gc[i] != wc[i] || gw[i] != ww[i] {
			t.Fatalf("%s: entry %d (%d,%v), reference (%d,%v)", name, i, gc[i], gw[i], wc[i], ww[i])
		}
	}
}

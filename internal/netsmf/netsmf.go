// Package netsmf holds the estimator math of LightNE's first stage:
// NetSMF-style construction of a sparse, spectrally faithful approximation
// of the NetMF matrix (paper Eq. 1)
//
//	M = trunc_log( vol(G)/(bT) · Σ_{r=1..T} (D⁻¹A)^r D⁻¹ )
//
// from the PathSampling aggregate that internal/sampler accumulates. The
// composition — sampling, the drain, the factorizer and propagation — lives
// in internal/core (core.Embed, core.EmbedTable); this package only turns a
// drained aggregate into the trunc-logged matrix.
//
// Estimator. For a sample of length r from arc (u,v) ending at (u',v'),
// reversibility of the walk gives
//
//	Pr[(u',v')] = d_{u'}·(P^r)_{u'v'} / vol(G)
//
// independent of the split point s, so the weighted sample counts W (each
// sample is inserted in both orientations, and downsampled heads carry
// weight 1/p_e) satisfy
//
//	E[W_{uv}] = 2·M̂/(T·vol) · d_u · Σ_r (P^r)_{uv},
//
// hence vol²·W / (2·b·M̂·d_u·d_v) is an unbiased estimate of the matrix
// inside trunc_log in Eq. 1 (the 1/T average is absorbed because r is drawn
// uniformly from [1, T]). Turning downsampling off and letting M grow
// recovers the original NetSMF (core.NetSMFConfig, the paper's baseline).
package netsmf

import (
	"fmt"
	"math"

	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/sparse"
	"lightne/internal/svd"
)

// MFromMultiple returns M = mult·T·m for a graph with m undirected edges
// (NumEdges()/2 arcs), the parameterization used throughout the paper's
// evaluation (e.g. LightNE-Small = 0.1·T·m, LightNE-Large = 20·T·m).
func MFromMultiple(g *graph.Graph, t int, mult float64) int64 {
	m := float64(g.NumEdges()) / 2
	v := mult * float64(t) * m
	if v < 1 {
		return 1
	}
	return int64(v)
}

// BuildMatrixCSR converts a fully-sorted drain (Sink.DrainCSR) into the
// trunc-log NetMF matrix estimate: the row transform over all rows, wrapped
// (and validated) as a CSR. b is the negative-sample count and trials the
// realized sample count M̂ (see the package comment). The drained arrays are
// read, never written.
func BuildMatrixCSR(g *graph.Graph, rowPtr []int64, cols []uint32, ws []float64, b float64, trials int64) (*sparse.CSR, error) {
	n := g.NumVertices()
	var c svd.RowChunk
	NewTransform(g, rowPtr, cols, ws, b, trials).Rows(0, n, &c)
	mat, err := sparse.FromCSRParts(n, n, c.RowPtr, c.Cols, c.Vals)
	if err != nil {
		return nil, fmt.Errorf("netsmf: building sparsifier: %w", err)
	}
	return mat, nil
}

// Transform is the row kernel behind both factorizers — the only place the
// unbiased estimator scaling (package comment) and the truncated logarithm
// of Eq. 1 are applied. It reads a raw drained CSR and never writes it.
type Transform struct {
	rowPtr []int64
	cols   []uint32
	ws     []float64
	deg    []float64 // weighted degrees; equals Degrees for unweighted graphs
	scale  float64   // vol² / (2·b·M̂)
}

// NewTransform prepares the kernel over a drained CSR of g's rows, for b
// negative samples and trials realized samples.
func NewTransform(g *graph.Graph, rowPtr []int64, cols []uint32, ws []float64, b float64, trials int64) *Transform {
	vol := g.Volume()
	return &Transform{rowPtr: rowPtr, cols: cols, ws: ws, deg: g.Strengths(), scale: vol * vol / (2 * b * float64(trials))}
}

// x is the scaled estimate of raw entry p of row r, the argument of trunc_log.
func (t *Transform) x(r int, p int64) float64 {
	return t.ws[p] * t.scale / (t.deg[r] * t.deg[t.cols[p]])
}

// Rows writes trunc_log of raw rows [lo, hi) into out as a chunk-local CSR
// (RowLo = lo, RowPtr zero-based), keeping log(x) iff x > 1 in raw order:
// a parallel per-row count, a scan, and a parallel fill into exactly-sized
// arrays, so the output is the same for every worker count and for every
// split of the rows into ranges. out's arrays are reused when large enough.
func (t *Transform) Rows(lo, hi int, out *svd.RowChunk) {
	n := hi - lo
	if cap(out.RowPtr) < n+1 {
		out.RowPtr = make([]int64, n+1)
	}
	ptr := out.RowPtr[:n+1]
	par.For(n, 64, func(i int) {
		var kept int64
		for p := t.rowPtr[lo+i]; p < t.rowPtr[lo+i+1]; p++ {
			if t.x(lo+i, p) > 1 {
				kept++
			}
		}
		ptr[i] = kept
	})
	ptr[n] = par.ExclusiveScan(ptr[:n])
	if int64(cap(out.Cols)) < ptr[n] {
		out.Cols = make([]uint32, ptr[n])
		out.Vals = make([]float64, ptr[n])
	}
	cols, vals := out.Cols[:ptr[n]], out.Vals[:ptr[n]]
	par.For(n, 64, func(i int) {
		w := ptr[i]
		for p := t.rowPtr[lo+i]; p < t.rowPtr[lo+i+1]; p++ {
			if x := t.x(lo+i, p); x > 1 {
				cols[w] = t.cols[p]
				vals[w] = math.Log(x)
				w++
			}
		}
	})
	*out = svd.RowChunk{RowLo: lo, RowPtr: ptr, Cols: cols, Vals: vals}
}

// Package netsmf holds the estimator math of LightNE's first stage:
// NetSMF-style construction of a sparse, spectrally faithful approximation
// of the NetMF matrix (paper Eq. 1)
//
//	M = trunc_log( vol(G)/(bT) · Σ_{r=1..T} (D⁻¹A)^r D⁻¹ )
//
// from the PathSampling aggregate that internal/sampler accumulates. The
// composition — sampling, the factorizer and propagation — lives in
// internal/core (core.Embed, core.EmbedTable); this package only turns a
// grouped aggregate into the trunc-logged matrix.
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
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
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

// BuildMatrixCSR turns grouped rows of g's aggregate — the full drain
// (sampler.Upper.DrainCSR) or its upper triangle (sampler.Upper) — into the
// same rows of the trunc-log NetMF matrix estimate, wrapped (and validated)
// as a CSR: the only place the unbiased estimator scaling (package comment)
// and the truncated logarithm of Eq. 1 are applied. b is the negative-sample
// count and trials the realized sample count M̂. Entry (r, c) scales to
//
//	x = w · vol² / (2·b·M̂) / (d_r·d_c)
//
// and is kept as log(x) iff x > 1, in the rows' order. The grouped arrays
// are read, never written. Over blocks of about equal entry counts
// (par.PrefixBlocks), a parallel count of each row's kept entries, a scan
// and a parallel fill give the same output for every worker count.
func BuildMatrixCSR(g *graph.Graph, rowPtr []int64, cols []uint32, ws []float64, b float64, trials int64) (*sparse.CSR, error) {
	n := g.NumVertices()
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("netsmf: %d row pointers for %d vertices", len(rowPtr), n)
	}
	vol, deg := g.Volume(), g.Strengths()
	scale := vol * vol / (2 * b * float64(trials))
	bounds := par.PrefixBlocks(rowPtr, transformGrain)
	ptr := make([]int64, n+1)
	par.ForBlocks(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			var kept int64
			dr := deg[r]
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				if ws[p]*scale/(dr*deg[cols[p]]) > 1 {
					kept++
				}
			}
			ptr[r] = kept
		}
	})
	ptr[n] = par.ExclusiveScan(ptr[:n])
	keptCols, vals := make([]uint32, ptr[n]), make([]float64, ptr[n])
	par.ForBlocks(bounds, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			w, dr := ptr[r], deg[r]
			for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
				if x := ws[p] * scale / (dr * deg[cols[p]]); x > 1 {
					keptCols[w] = cols[p]
					vals[w] = math.Log(x)
					w++
				}
			}
		}
	})
	mat, err := sparse.FromCSRParts(n, n, ptr, keptCols, vals)
	if err != nil {
		return nil, fmt.Errorf("netsmf: building sparsifier: %w", err)
	}
	return mat, nil
}

// transformGrain is BuildMatrixCSR's least entry count per block.
const transformGrain = 1 << 12

// Sparsifier builds the trunc-log NetMF matrix estimate from a pass's
// grouped upper triangle: BuildMatrixCSR on the upper rows (validated
// there, once), then hashtable.Mirror writes the full symmetric CSR. It
// equals BuildMatrixCSR on the full drain bit for bit, so no path needs the
// raw full CSR: (c, r) carries the fixed-point sum of (r, c) and
// deg[c]·deg[r] is bitwise deg[r]·deg[c], so x > 1 and log(x) agree on both
// sides of the diagonal, and the mirror writes the full drain's order
// (DESIGN.md "Numerics").
func Sparsifier(g *graph.Graph, up *sampler.Upper, b float64, trials int64) (*sparse.CSR, error) {
	upper, err := BuildMatrixCSR(g, up.RowPtr, up.Cols, up.Ws, b, trials)
	if err != nil {
		return nil, err
	}
	rowPtr, cols, vals := hashtable.Mirror(upper.RowPtr, upper.ColIdx, upper.Val)
	return &sparse.CSR{NumRows: upper.NumRows, NumCols: upper.NumCols, RowPtr: rowPtr, ColIdx: cols, Val: vals}, nil
}

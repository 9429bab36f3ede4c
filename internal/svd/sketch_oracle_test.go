package svd

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/par"
	"lightne/internal/rng"
	"lightne/internal/sampler"
)

// sparseSignRowsOracle is sparseSignRows before the sign was folded into the
// column: the same per-row stream, the sign kept in a parallel []bool.
func sparseSignRowsOracle(n, width, s int, seed uint64) ([]uint32, []bool) {
	idx := make([]uint32, n*s)
	neg := make([]bool, n*s)
	par.ForRange(n, 64, func(lo, hi int) {
		var src rng.Source
		for v := lo; v < hi; v++ {
			src.Seed(seed, uint64(v))
			base := v * s
			for t := 0; t < s; t++ {
				// Rejection-sample a column not already used by this row
				// (s ≤ width, so a free column always exists).
				for {
					pos := uint32(src.Intn(width))
					dup := false
					for u := 0; u < t; u++ {
						if idx[base+u] == pos {
							dup = true
							break
						}
					}
					if !dup {
						idx[base+t] = pos
						break
					}
				}
				neg[base+t] = src.Uint64()&1 == 1
			}
		}
	})
	return idx, neg
}

// absorbOracle is the sparse-sign arm of Absorb before the fold: one
// data-dependent branch per ±1 of Ω and of Ψ, over (idx, neg) test matrices.
func (sk *Sketch) absorbOracle(c RowChunk, signIdx []uint32, signNeg []bool, psiIdx []uint32, psiNeg []bool) {
	rows := c.Rows()
	if rows == 0 {
		return
	}
	s := sk.s
	par.For(rows, 32, func(i int) {
		yrow := sk.y.Row(c.RowLo + i)
		zrow := sk.z.Row(c.RowLo + i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			w := c.Vals[p]
			base := int(c.Cols[p]) * s
			for t := base; t < base+s; t++ {
				if signNeg[t] {
					yrow[signIdx[t]] -= w
				} else {
					yrow[signIdx[t]] += w
				}
				if psiNeg[t] {
					zrow[psiIdx[t]] -= w
				} else {
					zrow[psiIdx[t]] += w
				}
			}
		}
	})
}

// signProjectOracle is signProject before the fold, over (idx, neg).
func (sk *Sketch) signProjectOracle(out *dense.Matrix, q *dense.Matrix, idx []uint32, neg []bool) {
	n, k, s := sk.n, sk.k, sk.s
	width := out.Cols
	nb := 64
	if nb > n {
		nb = n
	}
	size := (n + nb - 1) / nb
	nb = (n + size - 1) / size
	partials := make([][]float64, nb)
	par.For(nb, 1, func(bi int) {
		lo := bi * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		acc := make([]float64, k*width)
		for v := lo; v < hi; v++ {
			qv := q.Row(v)
			base := v * s
			for t := base; t < base+s; t++ {
				col := int(idx[t])
				if neg[t] {
					for a, qa := range qv {
						acc[a*width+col] -= qa
					}
				} else {
					for a, qa := range qv {
						acc[a*width+col] += qa
					}
				}
			}
		}
		partials[bi] = acc
	})
	dense.CombineTree(partials)
	copy(out.Data, partials[0])
}

// rowChunks cuts an in-memory CSR (global rowPtr) into chunks of `rows`
// whole rows each, empty rows included.
func rowChunks(rowPtr []int64, cols []uint32, vals []float64, rows int) []RowChunk {
	var out []RowChunk
	n := len(rowPtr) - 1
	for lo := 0; lo < n; lo += rows {
		hi := min(lo+rows, n)
		local := make([]int64, hi-lo+1)
		for i := range local {
			local[i] = rowPtr[lo+i] - rowPtr[lo]
		}
		out = append(out, RowChunk{RowLo: lo, RowPtr: local,
			Cols: cols[rowPtr[lo]:rowPtr[hi]], Vals: vals[rowPtr[lo]:rowPtr[hi]]})
	}
	return out
}

// oracleFixture is an n-row sparse matrix with the first, the last and every
// fifth row empty and 1..6 entries elsewhere; weights are normal draws, and
// with probability 1/3 one of specials instead.
func oracleFixture(n int, seed uint64, specials []float64) ([]int64, []uint32, []float64) {
	src := rng.New(seed, 0)
	rowPtr := make([]int64, n+1)
	var cols []uint32
	var vals []float64
	for r := 0; r < n; r++ {
		if r%5 != 0 && r != n-1 {
			for e := 1 + src.Intn(6); e > 0; e-- {
				w := src.NormFloat64()
				if len(specials) > 0 && src.Intn(3) == 0 {
					w = specials[src.Intn(len(specials))]
				}
				cols = append(cols, uint32(src.Intn(n)))
				vals = append(vals, w)
			}
		}
		rowPtr[r+1] = int64(len(cols))
	}
	return rowPtr, cols, vals
}

// sameBits fails unless got and want agree bit for bit; two NaNs agree
// whatever their payloads (DESIGN.md, Numerics).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: value %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSketchAbsorbBitIdenticalToOracle pins the folded sparse-sign test
// matrices (sign in bit 31 of the column) against the branching kernels they
// replaced: the folded entries decode to exactly the oracle's columns and
// signs, and Y, Z, the co-range projection ΨᵀQ, U and Σ match the oracle bit
// for bit at every chunking × GOMAXPROCS × s, with empty rows and with
// signed zeros, subnormals, ±Inf and ±MaxFloat64 among the weights. The
// oracle's U and Σ are Factorize over oracle-absorbed Y and Z; its only
// sign-dependent step, the projection, is checked against signProjectOracle
// on the very Q that Factorize forms.
func TestSketchAbsorbBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, d = 60, 4
	weights := map[string][]float64{
		"normal":    nil,
		"subnormal": {0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.5e-320, math.SmallestNonzeroFloat64 * 3},
		"overflow":  {math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64},
		"mixed":     {0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64},
	}
	for name, specials := range weights {
		rowPtr, cols, vals := oracleFixture(n, 41, specials)
		// Oversample 4 makes k = 8: s = 8 fills Ω's rows and s = 64 is
		// clamped to k.
		for _, s := range []int{1, 3, 8, 64} {
			opt := SketchOptions{Seed: 19, Oversample: 4, SignNNZ: s}
			runtime.GOMAXPROCS(1)
			ref, err := NewSketch(n, d, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ref.k != 8 || ref.s != min(s, 8) {
				t.Fatalf("k = %d, s = %d: fixture geometry moved", ref.k, ref.s)
			}
			omIdx, omNeg := sparseSignRowsOracle(n, ref.k, ref.s, opt.Seed)
			psIdx, psNeg := sparseSignRowsOracle(n, ref.l, ref.s, opt.Seed^psiSeedSalt)
			for _, m := range []struct {
				folded []uint32
				idx    []uint32
				neg    []bool
			}{{ref.signIdx, omIdx, omNeg}, {ref.psiIdx, psIdx, psNeg}} {
				for i, e := range m.folded {
					if e&signCol != m.idx[i] || (e>>31 == 1) != m.neg[i] {
						t.Fatalf("s=%d: entry %d = %#x decodes to (%d, %v), oracle (%d, %v)",
							s, i, e, e&signCol, e>>31 == 1, m.idx[i], m.neg[i])
					}
				}
			}
			for _, c := range rowChunks(rowPtr, cols, vals, n) {
				ref.absorbOracle(c, omIdx, omNeg, psIdx, psNeg)
			}
			wantY, wantZ := ref.y.Clone(), ref.z.Clone()
			q, _ := dense.QRInPlace(ref.y.Clone())
			wantProj := dense.NewMatrix(ref.k, ref.l)
			ref.signProjectOracle(wantProj, q, psIdx, psNeg)
			want, wantErr := ref.Factorize()

			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, rows := range []int{1, 7, n} {
					what := fmt.Sprintf("%s s=%d procs=%d rows=%d", name, s, procs, rows)
					sk, err := NewSketch(n, d, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range rowChunks(rowPtr, cols, vals, rows) {
						sk.Absorb(c)
					}
					sameBits(t, what+" Y", sk.y.Data, wantY.Data)
					sameBits(t, what+" Z", sk.z.Data, wantZ.Data)
					proj := dense.NewMatrix(sk.k, sk.l)
					sk.signProject(proj, q, sk.psiIdx)
					sameBits(t, what+" ΨᵀQ", proj.Data, wantProj.Data)
					got, err := sk.Factorize()
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: Factorize error %v, oracle %v", what, err, wantErr)
					}
					if err == nil {
						sameBits(t, what+" U", got.U.Data, want.U.Data)
						sameBits(t, what+" Σ", got.Sigma, want.Sigma)
					}
				}
			}
		}
	}
}

// absorbFixture is the harness's embed-stream sparsifier as one chunk:
// RMAT-13 (edge factor 20), T = 10, M = 2·T·m, downsampled batched walks
// into four shards, scaled and trunc-logged row by row (b = 1) — about
// 0.9 M kept entries.
var absorbFixture = sync.OnceValues(func() (int, RowChunk) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 20, Seed: 1})
	if err != nil {
		panic(err)
	}
	const t = 10
	cfg := sampler.Config{T: t, M: int64(2 * t * g.NumEdges() / 2), Downsample: true, Seed: 1, Shards: 4}
	table, stats, err := sampler.SampleBatched(g, cfg, 0)
	if err != nil {
		panic(err)
	}
	return g.NumVertices(), truncLog(g, table, stats.Trials)
})

// truncLog drains table and keeps log(x) of every scaled entry x > 1, the
// row transform of netsmf.Transform (which this package cannot import).
func truncLog(g *graph.Graph, table sampler.Sink, trials int64) RowChunk {
	n := g.NumVertices()
	raw, rawCols, ws := table.DrainCSR(n)
	vol, deg := g.Volume(), g.Strengths()
	scale := vol * vol / (2 * float64(trials))
	c := RowChunk{RowPtr: make([]int64, n+1)}
	for r := 0; r < n; r++ {
		for p := raw[r]; p < raw[r+1]; p++ {
			if x := ws[p] * scale / (deg[r] * deg[rawCols[p]]); x > 1 {
				c.Cols = append(c.Cols, rawCols[p])
				c.Vals = append(c.Vals, math.Log(x))
			}
		}
		c.RowPtr[r+1] = int64(len(c.Cols))
	}
	return c
}

// benchmarkAbsorb times absorbing the embed-stream sparsifier (d = 32, the
// default sign density) as one chunk into a fresh sketch; the sketch's
// allocation and test-matrix draw are outside the timer.
func benchmarkAbsorb(b *testing.B, oracle bool) {
	n, chunk := absorbFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sk, err := NewSketch(n, 32, SketchOptions{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		var omIdx, psIdx []uint32
		var omNeg, psNeg []bool
		if oracle {
			omIdx, omNeg = sparseSignRowsOracle(n, sk.k, sk.s, 2)
			psIdx, psNeg = sparseSignRowsOracle(n, sk.l, sk.s, 2^psiSeedSalt)
		}
		b.StartTimer()
		if oracle {
			sk.absorbOracle(chunk, omIdx, omNeg, psIdx, psNeg)
		} else {
			sk.Absorb(chunk)
		}
	}
	b.ReportMetric(float64(chunk.NNZ()), "entries")
}

// BenchmarkSketchAbsorb is the branch-free absorb at the embed-stream shape.
func BenchmarkSketchAbsorb(b *testing.B) { benchmarkAbsorb(b, false) }

// BenchmarkSketchAbsorbOracle is the branching absorb it replaced, on the
// same sparsifier and test matrices.
func BenchmarkSketchAbsorbOracle(b *testing.B) { benchmarkAbsorb(b, true) }

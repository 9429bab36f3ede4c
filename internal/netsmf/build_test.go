package netsmf

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
)

// transformOracle is the formulation BuildMatrixCSR's row kernel replaced:
// scale a copy of the raw values of the full drain in place, then
// sparse.CSR.TruncLog.
func transformOracle(g *graph.Graph, raw *sparse.CSR, b float64, trials int64) *sparse.CSR {
	vol, deg := g.Volume(), g.Strengths()
	scale := vol * vol / (2 * b * float64(trials))
	m := &sparse.CSR{NumRows: raw.NumRows, NumCols: raw.NumCols, RowPtr: raw.RowPtr, ColIdx: raw.ColIdx,
		Val: make([]float64, len(raw.Val))}
	for i := 0; i < raw.NumRows; i++ {
		for p := raw.RowPtr[i]; p < raw.RowPtr[i+1]; p++ {
			m.Val[p] = raw.Val[p] * scale / (deg[i] * deg[raw.ColIdx[p]])
		}
	}
	return m.TruncLog()
}

// hubGraph is randGraph plus a hub adjacent to every backbone vertex (one row
// far wider than the rest) and ten isolated vertices (empty rows).
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	base := randGraph(t, 300, 2, 17)
	n := base.NumVertices()
	arcs := base.Edges()
	for u := 0; u < n; u++ {
		arcs = append(arcs, graph.Edge{U: uint32(u), V: uint32(n)})
	}
	g, err := graph.FromEdges(n+11, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// upperFixture is one input of the sparsifier build differential: a pass's
// grouped upper triangle on g, with its trial count and the b to build at.
type upperFixture struct {
	name   string
	g      *graph.Graph
	up     *sampler.Upper
	trials int64
	b      float64
}

// upperFixtures draws the build differential's inputs: RMAT-12 through the
// per-arc pass at the default budget (M = T·m), RMAT-13 compressed through
// the wave pass at M = 2·T·m, the weighted ring with chords, and the hub
// graph (a hub row, empty rows) at the b where one diagonal entry scales to
// exactly x = 1 (boundaryB), high enough that trunc_log drops diagonal
// entries and whole rows.
func upperFixtures(t *testing.T) []upperFixture {
	t.Helper()
	var out []upperFixture
	add := func(name string, g *graph.Graph, batched bool, cfg sampler.Config, b float64) {
		var (
			up    *sampler.Upper
			stats sampler.Stats
			err   error
		)
		if batched {
			up, stats, err = sampler.SampleBatched(g, cfg, 0)
		} else {
			up, stats, err = sampler.Sample(g, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if b == 0 {
			b = boundaryB(t, g, up, stats.Trials)
		}
		out = append(out, upperFixture{name, g, up, stats.Trials, b})
	}
	rmat12, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	add("rmat12-per-arc", rmat12, false, sampler.Config{T: 10, M: MFromMultiple(rmat12, 10, 1), Downsample: true, Seed: 1}, 1)
	rmat13, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := rmat13.ToCompressed(0)
	if err != nil {
		t.Fatal(err)
	}
	add("rmat13-batched-compressed", compressed, true, sampler.Config{T: 10, M: MFromMultiple(compressed, 10, 2), Downsample: true, Seed: 1}, 1)
	add("weighted", weightedTestGraph(t), false, sampler.Config{T: 3, M: 100_000, Seed: 19}, 1)
	add("hub", hubGraph(t), false, sampler.Config{T: 4, M: 150_000, Downsample: true, Seed: 29}, 0)
	return out
}

// scaled is the argument of trunc_log for upper-triangle entry p of row r
// at b, in the build's order of operations.
func scaled(g *graph.Graph, up *sampler.Upper, trials int64, b float64, r int, p int64) float64 {
	vol, deg := g.Volume(), g.Strengths()
	return up.Ws[p] * (vol * vol / (2 * b * float64(trials))) / (deg[r] * deg[up.Cols[p]])
}

// boundaryB returns a b at which a diagonal entry of up scales to exactly
// x = 1, the keep test's boundary: of the diagonal entries in order of
// their distance from x = 4 at b = 1, the first for which a b within 64
// ulps of x(1) lands on 1.
func boundaryB(t *testing.T, g *graph.Graph, up *sampler.Upper, trials int64) float64 {
	t.Helper()
	var diag []int
	for r := 0; r+1 < len(up.RowPtr); r++ {
		if p := up.RowPtr[r]; p < up.RowPtr[r+1] && up.Cols[p] == uint32(r) {
			diag = append(diag, r)
		}
	}
	x1 := func(r int) float64 { return scaled(g, up, trials, 1, r, up.RowPtr[r]) }
	slices.SortFunc(diag, func(a, b int) int { return cmp.Compare(math.Abs(x1(a)-4), math.Abs(x1(b)-4)) })
	for _, r := range diag {
		b := x1(r)
		for i := 0; i < 64; i++ {
			b = math.Nextafter(b, 0)
		}
		for i := 0; i < 129; i++ {
			if scaled(g, up, trials, b, r, up.RowPtr[r]) == 1 {
				return b
			}
			b = math.Nextafter(b, math.Inf(1))
		}
	}
	t.Fatal("no diagonal entry scales to exactly 1 at any b tried")
	return 0
}

// drainOracle is the full drain of up, written independently of
// hashtable.Mirror: every upper entry and, off the diagonal, its transpose,
// as triples through sparse.FromCOO.
func drainOracle(t *testing.T, up *sampler.Upper) *sparse.CSR {
	t.Helper()
	n := len(up.RowPtr) - 1
	var us, vs []uint32
	var ws []float64
	for r := 0; r < n; r++ {
		for p := up.RowPtr[r]; p < up.RowPtr[r+1]; p++ {
			c := up.Cols[p]
			us, vs, ws = append(us, uint32(r)), append(vs, c), append(ws, up.Ws[p])
			if c != uint32(r) {
				us, vs, ws = append(us, c), append(vs, uint32(r)), append(ws, up.Ws[p])
			}
		}
	}
	raw, err := sparse.FromCOO(n, n, us, vs, ws)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestUpperSparsifierBitIdenticalToDrain is the differential of the one
// sparsifier build: Sparsifier on a pass's upper triangle and
// BuildMatrixCSR on its full drain (DrainCSR) both equal the
// scale-then-TruncLog oracle on the full drain written independently of
// the mirror (drainOracle) — row pointers, columns and Float64bits — at
// GOMAXPROCS 1, 2 and 4, DrainCSR equals that drain, and neither build
// writes what it reads. The hub fixture must hold an entry at exactly
// x = 1, which trunc_log drops, and see trunc_log drop diagonal entries and
// whole rows, so the keep test is exercised at its boundary, on the
// diagonal, which the mirror writes once, and on rows the mirror leaves
// empty. See DESIGN.md "Numerics".
func TestUpperSparsifierBitIdenticalToDrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, fx := range upperFixtures(t) {
		n := fx.g.NumVertices()
		raw := drainOracle(t, fx.up)
		want := transformOracle(fx.g, raw, fx.b, fx.trials)
		if want.NNZ() == 0 || want.NNZ() == raw.NNZ() {
			t.Fatalf("%s: trunc_log kept %d of %d entries; the fixture must prune some", fx.name, want.NNZ(), raw.NNZ())
		}
		if fx.name == "hub" {
			var atOne, droppedDiag, emptied int
			for r := 0; r < n; r++ {
				for p := fx.up.RowPtr[r]; p < fx.up.RowPtr[r+1]; p++ {
					if scaled(fx.g, fx.up, fx.trials, fx.b, r, p) == 1 {
						atOne++
					}
				}
				if raw.At(r, uint32(r)) != 0 && want.At(r, uint32(r)) == 0 {
					droppedDiag++
				}
				if raw.RowPtr[r+1] > raw.RowPtr[r] && want.RowPtr[r+1] == want.RowPtr[r] {
					emptied++
				}
			}
			if atOne == 0 || droppedDiag == 0 || emptied == 0 {
				t.Fatalf("hub: %d entries at x = 1, %d diagonal entries dropped, %d rows emptied; the fixture needs all three",
					atOne, droppedDiag, emptied)
			}
		}
		upperWs := slices.Clone(fx.up.Ws)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rowPtr, cols, ws := fx.up.DrainCSR(n)
			drain := &sparse.CSR{NumRows: n, NumCols: n, RowPtr: rowPtr, ColIdx: cols, Val: ws}
			sameBits(t, fmt.Sprintf("%s procs=%d: DrainCSR", fx.name, procs), drain, raw)
			drained, err := BuildMatrixCSR(fx.g, rowPtr, cols, ws, fx.b, fx.trials)
			if err != nil {
				t.Fatal(err)
			}
			built, err := Sparsifier(fx.g, fx.up, fx.b, fx.trials)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%s procs=%d: BuildMatrixCSR(DrainCSR)", fx.name, procs), drained, want)
			sameBits(t, fmt.Sprintf("%s procs=%d: Sparsifier", fx.name, procs), built, want)
			if !slices.Equal(ws, raw.Val) {
				t.Fatalf("%s procs=%d: BuildMatrixCSR wrote the drained weights", fx.name, procs)
			}
		}
		if !slices.Equal(fx.up.Ws, upperWs) {
			t.Fatalf("%s: a build wrote the upper triangle's weights", fx.name)
		}
	}
}

// sameBits fails unless got and want hold the same row pointers, columns
// and value bits.
func sameBits(t *testing.T, label string, got, want *sparse.CSR) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: %dx%d with %d entries, want %dx%d with %d", label, got.NumRows, got.NumCols, got.NNZ(), want.NumRows, want.NumCols, want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", label, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] || math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)", label, i, got.ColIdx[i], got.Val[i], want.ColIdx[i], want.Val[i])
		}
	}
}

// TestSparsifierErrorDecays is the sample-complexity check of the build: on
// the karate fixture at T = 3 with downsampling on, the median over 7 seeds
// of the relative Frobenius error against the exact NetMF matrix falls like
// 1/√M (√10 ≈ 3.2 per 10× step in M), so each 10× step must cut it by at
// least 2.5×.
func TestSparsifierErrorDecays(t *testing.T) {
	g := karate(t)
	const T = 3
	want := exactNetMF(g, T, 1)
	var den float64
	for _, v := range want.Data {
		den += v * v
	}
	n := g.NumVertices()
	var medians []float64
	for _, m := range []int64{30_000, 300_000, 3_000_000} {
		var errs []float64
		for seed := uint64(1); seed <= 7; seed++ {
			up, stats, err := sampler.Sample(g, sampler.Config{T: T, M: m, Downsample: true, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			mat, err := Sparsifier(g, up, 1, stats.Trials)
			if err != nil {
				t.Fatal(err)
			}
			var num float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d := mat.At(i, uint32(j)) - want.At(i, j)
					num += d * d
				}
			}
			errs = append(errs, math.Sqrt(num/den))
		}
		slices.Sort(errs)
		medians = append(medians, errs[len(errs)/2])
	}
	t.Logf("median relative Frobenius error at M = 3e4, 3e5, 3e6: %.4f %.4f %.4f", medians[0], medians[1], medians[2])
	for i := 1; i < len(medians); i++ {
		if medians[i]*2.5 > medians[i-1] {
			t.Fatalf("M ×10 cut the median error from %.4f to %.4f, less than 2.5×", medians[i-1], medians[i])
		}
	}
}

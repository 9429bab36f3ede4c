package prone

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/eval"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/rng"
)

func TestBesselIKnownValues(t *testing.T) {
	// Reference values (Abramowitz & Stegun / SciPy iv):
	cases := []struct {
		n    int
		x    float64
		want float64
	}{
		{0, 0.5, 1.0634833707413236},
		{1, 0.5, 0.25789430539089324},
		{2, 0.5, 0.031906149177738254},
		{3, 0.5, 0.0026451119689902845}, // cross-checked via I_1 - (4/x)·I_2
		{0, 1.0, 1.2660658777520084},
		{1, 1.0, 0.5651591039924851},
		{5, 0.5, 8.223171313109261e-06}, // series: 0.25^5/120·(1 + 0.0625/6 + …)
	}
	for _, c := range cases {
		got := besselI(c.n, c.x)
		if math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) {
			t.Fatalf("I_%d(%g)=%.16g want %.16g", c.n, c.x, got, c.want)
		}
	}
	if besselI(-2, 0.5) != besselI(2, 0.5) {
		t.Fatal("I_{-n} should equal I_n")
	}
}

// twoBlocks builds two dense 12-vertex clusters joined by one edge.
func twoBlocks(t *testing.T) *graph.Graph {
	t.Helper()
	var arcs []graph.Edge
	s := rng.New(3, 0)
	half := 12
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if s.Float64() < 0.7 {
					arcs = append(arcs, graph.Edge{U: uint32(base + i), V: uint32(base + j)})
				}
			}
		}
	}
	arcs = append(arcs, graph.Edge{U: 0, V: uint32(half)})
	g, err := graph.FromEdges(2*half, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFactorizationMatrixStructure(t *testing.T) {
	g := twoBlocks(t)
	mat, err := FactorizationMatrix(g, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mat.NumRows != g.NumVertices() {
		t.Fatalf("rows=%d", mat.NumRows)
	}
	// Entries live only on edges, so NNZ <= directed arc count.
	if mat.NNZ() > g.NumEdges() {
		t.Fatalf("NNZ=%d exceeds arcs=%d", mat.NNZ(), g.NumEdges())
	}
	for p := int64(0); p < mat.NNZ(); p++ {
		if mat.Val[p] <= 0 {
			t.Fatal("trunc-logged entries must be positive")
		}
	}
}

func TestFactorizeShapeAndFiniteness(t *testing.T) {
	g := twoBlocks(t)
	x, nnz, err := Factorize(g, DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != g.NumVertices() || x.Cols != 6 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	if nnz == 0 {
		t.Fatal("factorization matrix empty")
	}
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in embedding")
		}
	}
}

func TestPropagateShapesAndOrderOne(t *testing.T) {
	g := twoBlocks(t)
	x := dense.NewMatrix(g.NumVertices(), 4)
	x.FillGaussian(1)
	// Order <= 1 is identity (per ProNE reference implementation).
	y, err := Propagate(g, x, PropagationConfig{Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("order-1 propagation must be identity")
		}
	}
	y, err = Propagate(g, x, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		t.Fatalf("shape changed: %dx%d", y.Rows, y.Cols)
	}
}

func TestPropagateRowsNormalized(t *testing.T) {
	g := twoBlocks(t)
	x, _, err := Factorize(g, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	y, err := Propagate(g, x, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < y.Rows; i++ {
		var s float64
		for _, v := range y.Row(i) {
			s += v * v
		}
		if math.Abs(s-1) > 1e-9 && s != 0 {
			t.Fatalf("row %d norm² = %g, want 1", i, s)
		}
	}
}

// TestAllFiltersProduceValidEmbeddings checks every propagation filter the
// package offers (only the Chebyshev-Gaussian one) on a factorized graph:
// the shape is kept, every value is finite and every row has unit norm.
func TestAllFiltersProduceValidEmbeddings(t *testing.T) {
	g := twoBlocks(t)
	x, _, err := Factorize(g, DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	y, err := Propagate(g, x, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		t.Fatalf("shape changed: %dx%d", y.Rows, y.Cols)
	}
	for _, v := range y.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("NaN/Inf in propagated embedding")
		}
	}
	for i := 0; i < y.Rows; i++ {
		var s float64
		for _, v := range y.Row(i) {
			s += v * v
		}
		if s != 0 && math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d norm² %g", i, s)
		}
	}
}

func TestPropagatePreservesCommunitySignal(t *testing.T) {
	// The filter must leave a classifiable embedding on a labeled SBM.
	g, labels, err := gen.SBM(gen.SBMConfig{N: 600, Communities: 3, PIn: 0.1, POut: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := Factorize(g, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	y, err := Propagate(g, x, DefaultPropagation())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := eval.NodeClassification(y, labels.Of, labels.NumClasses, 0.3, 5, eval.DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if cr.MicroF1 < 0.8 {
		t.Fatalf("micro-F1 %.3f too low on an easy SBM", cr.MicroF1)
	}
}

func TestPropagateMismatchedRows(t *testing.T) {
	g := twoBlocks(t)
	x := dense.NewMatrix(3, 4)
	if _, err := Propagate(g, x, DefaultPropagation()); err == nil {
		t.Fatal("expected rows/vertices mismatch error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	g := twoBlocks(t)
	res, err := Run(g, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumVertices() || res.Embedding.Cols != 8 {
		t.Fatal("bad embedding shape")
	}
	if res.Timing.SVD <= 0 || res.Timing.Propagation <= 0 {
		t.Fatal("timings missing")
	}
	// Propagated embedding separates the two clusters.
	x := res.Embedding
	dot := func(i, j int) float64 {
		var s float64
		for k := 0; k < x.Cols; k++ {
			s += x.At(i, k) * x.At(j, k)
		}
		return s
	}
	half := g.NumVertices() / 2
	var within, across float64
	var nw, na int
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			if (i < half) == (j < half) {
				within += dot(i, j)
				nw++
			} else {
				across += dot(i, j)
				na++
			}
		}
	}
	if within/float64(nw) <= across/float64(na) {
		t.Fatalf("within %.3f not above across %.3f", within/float64(nw), across/float64(na))
	}
}

func TestRunErrors(t *testing.T) {
	g := twoBlocks(t)
	bad := DefaultConfig(0)
	if _, err := Run(g, bad); err == nil {
		t.Fatal("expected dimension error")
	}
	empty, err := graph.FromEdges(0, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(empty, DefaultConfig(4)); err == nil {
		t.Fatal("expected empty graph error")
	}
}

func TestAdjacencyWithSelfLoops(t *testing.T) {
	g := twoBlocks(t)
	m := adjacencyWithSelfLoops(g)
	n := g.NumVertices()
	if m.NNZ() != g.NumEdges()+int64(n) {
		t.Fatalf("NNZ=%d want %d", m.NNZ(), g.NumEdges()+int64(n))
	}
	for i := 0; i < n; i++ {
		if m.At(i, uint32(i)) != 1 {
			t.Fatalf("missing self loop at %d", i)
		}
		// Row sorted.
		for p := m.RowPtr[i] + 1; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p-1] > m.ColIdx[p] {
				t.Fatalf("row %d unsorted after self-loop insertion", i)
			}
		}
	}
}

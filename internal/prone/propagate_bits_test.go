package prone

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/rng"
)

// bitsGraphs are the inputs on which the one-pass operator could differ from
// the COO-built one it replaced: a graph that already has self-loops (Ã holds
// the diagonal twice, the operator once — merged in input order), parallel
// arcs (any column twice), isolated vertices (row sum 1 from the added loop
// alone), edge weights, and a power-law RMAT.
func bitsGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	src := rng.New(9, 0)
	const n = 60
	var arcs []graph.Edge
	var warcs []graph.WeightedEdge
	for i := 0; i < 4*n; i++ {
		u, v := uint32(src.Intn(n-6)), uint32(src.Intn(n-6)) // the last six vertices stay isolated
		if i%7 == 0 {
			v = u // self-loop
		}
		arcs = append(arcs, graph.Edge{U: u, V: v})
		if i%5 == 0 {
			arcs = append(arcs, graph.Edge{U: u, V: v}) // parallel arc
		}
		if u != v {
			warcs = append(warcs, graph.WeightedEdge{U: u, V: v, W: 0.25 + 3*src.Float64()})
		}
	}
	noLoops := graph.DefaultOptions()
	return map[string]*graph.Graph{
		"isolated":   must(graph.FromEdges(n, arcs, noLoops)),
		"self-loops": must(graph.FromEdges(n, arcs, graph.Options{Symmetrize: true})),
		"multigraph": must(multigraph(n, arcs)),
		"weighted":   must(graph.FromWeightedEdges(n, warcs, noLoops)),
		"rmat10":     must(gen.RMAT(gen.RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 3})),
	}
}

// multigraph builds the symmetrized graph of arcs with every parallel arc
// and self-loop kept, as an LNG1 file can carry them (FromEdges merges
// duplicates).
func multigraph(n int, arcs []graph.Edge) (*graph.Graph, error) {
	var keys []uint64
	for _, e := range arcs {
		keys = append(keys, uint64(e.U)<<32|uint64(e.V))
		if e.U != e.V {
			keys = append(keys, uint64(e.V)<<32|uint64(e.U))
		}
	}
	slices.Sort(keys)
	offsets, edges := make([]int64, n+1), make([]uint32, len(keys))
	for i, k := range keys {
		offsets[k>>32+1]++
		edges[i] = uint32(k)
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	return graph.FromCSR(offsets, edges, graph.Options{})
}

func assertEmbeddingBits(t *testing.T, what string, got, want *dense.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, oracle %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element (%d,%d) = %x (%g), oracle %x (%g)", what,
				i/want.Cols, i%want.Cols, math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(w), w)
		}
	}
}

// TestPropagateBitIdenticalToOracle: the fused propagation (operator built
// in one pass over Ã's pattern, recurrence in the SpMM epilogue, rotating
// buffers) must return exactly the bits of the unfused one kept as
// propagateOracle — orders 2, 3 and 10, every fixture graph, GOMAXPROCS 1,
// 2 and 4. See DESIGN.md "Numerics".
func TestPropagateBitIdenticalToOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range bitsGraphs(t) {
		for _, d := range []int{5, 16} {
			x := dense.NewMatrix(g.NumVertices(), d)
			x.FillGaussian(uint64(d))
			for _, order := range []int{2, 3, 10} {
				cfg := DefaultPropagation()
				cfg.Order = order
				cfg.NormalizeRows = order != 3
				runtime.GOMAXPROCS(2)
				xBefore := x.Clone()
				want := propagateOracle(g, x, cfg)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					got, err := Propagate(g, x, cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertEmbeddingBits(t, fmt.Sprintf("%s d=%d order=%d procs=%d", name, d, order, procs), got, want)
				}
				assertEmbeddingBits(t, name+": input embedding modified", x, xBefore)
			}
		}
	}
}

// TestShiftedLaplacianBitIdenticalToCOOBuild checks the operator itself
// against the clone → ScaleRows → negate → AddScaledIdentity chain it
// replaced: the same value for every distinct (row, column), merged in the
// same order where Ã stores a column twice, and a stored 0 in the extra
// slots. See DESIGN.md "Numerics".
func TestShiftedLaplacianBitIdenticalToCOOBuild(t *testing.T) {
	for name, g := range bitsGraphs(t) {
		adj := adjacencyWithSelfLoops(g)
		inv := invRowSums(adj)
		da := cloneCSROracle(adj)
		da.ScaleRows(inv)
		want := addScaledIdentityOracle(negateOracle(da), 0.8)
		got := shiftedLaplacian(adj, inv, 0.8)
		for u := 0; u < adj.NumRows; u++ {
			w := want.RowPtr[u]
			for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
				if p > adj.RowPtr[u] && adj.ColIdx[p] == adj.ColIdx[p-1] {
					if math.Float64bits(got.Val[p]) != 0 {
						t.Fatalf("%s: repeated column %d of row %d holds %g, want +0", name, adj.ColIdx[p], u, got.Val[p])
					}
					continue
				}
				if want.ColIdx[w] != adj.ColIdx[p] || math.Float64bits(want.Val[w]) != math.Float64bits(got.Val[p]) {
					t.Fatalf("%s: row %d column %d = %x, COO build has column %d = %x",
						name, u, adj.ColIdx[p], math.Float64bits(got.Val[p]), want.ColIdx[w], math.Float64bits(want.Val[w]))
				}
				w++
			}
			if w != want.RowPtr[u+1] {
				t.Fatalf("%s: row %d has %d distinct columns, COO build %d", name, u, w-want.RowPtr[u], want.RowPtr[u+1]-want.RowPtr[u])
			}
		}
	}
}

// TestPropagateAllocationsIndependentOfOrder: every buffer is allocated
// before the Chebyshev loop and the SpMM body and epilogues are bound once,
// so a term allocates nothing (AllocsPerRun measures on one core).
func TestPropagateAllocationsIndependentOfOrder(t *testing.T) {
	g := bitsGraphs(t)["rmat10"]
	x := dense.NewMatrix(g.NumVertices(), 16)
	x.FillGaussian(1)
	allocs := func(order int) float64 {
		cfg := DefaultPropagation()
		cfg.Order = order
		return testing.AllocsPerRun(3, func() {
			if _, err := Propagate(g, x, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a3, a12 := allocs(3), allocs(12); a3 != a12 {
		t.Fatalf("Propagate allocates %v times at order 3 but %v at order 12", a3, a12)
	}
}

// TestWorkspaceBytesMatchesPropagate: the figure the planner prices the
// propagation stage with is what Propagate allocates, within 10 %.
func TestWorkspaceBytesMatchesPropagate(t *testing.T) {
	g := bitsGraphs(t)["rmat10"]
	const d = 32
	x := dense.NewMatrix(g.NumVertices(), d)
	x.FillGaussian(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // no per-goroutine noise in TotalAlloc
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Propagate(g, x, DefaultPropagation()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	want := float64(WorkspaceBytes(g.NumVertices(), g.NumEdges(), d))
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("Propagate allocated %.0f bytes, WorkspaceBytes says %.0f (ratio %.3f)", got, want, got/want)
	}
}

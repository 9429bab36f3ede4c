package netsmf

import (
	"fmt"
	"runtime"
	"testing"

	"lightne/internal/graph"
	"lightne/internal/rng"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
)

// randGraph builds a connected-ish random graph: a cycle backbone plus
// extra random chords, deduplicated.
func randGraph(t *testing.T, n, extraPerVertex int, seed uint64) *graph.Graph {
	t.Helper()
	s := rng.New(seed, 0)
	seen := make(map[[2]uint32]bool)
	var arcs []graph.Edge
	add := func(u, v uint32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]uint32{u, v}] {
			return
		}
		seen[[2]uint32{u, v}] = true
		arcs = append(arcs, graph.Edge{U: u, V: v})
	}
	for i := 0; i < n; i++ {
		add(uint32(i), uint32((i+1)%n))
		for k := 0; k < extraPerVertex; k++ {
			add(uint32(i), uint32(s.Intn(n)))
		}
	}
	g, err := graph.FromEdges(n, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rawSparsifier runs the per-arc sampling pass and the fully-sorted drain,
// returning the raw (unscaled) sparsifier: what the row transform reads.
func rawSparsifier(g *graph.Graph, cfg sampler.Config) (*sparse.CSR, sampler.Stats, error) {
	table, stats, err := sampler.Sample(g, cfg)
	if err != nil {
		return nil, stats, err
	}
	n := g.NumVertices()
	rowPtr, cols, ws := table.DrainCSR(n)
	mat, err := sparse.FromCSRParts(n, n, rowPtr, cols, ws)
	return mat, stats, err
}

// TestSparsifierGolden locks down the fast path's central guarantee: the raw
// sparsifier (rows, columns, weights) is bit-identical across aggregation
// shard counts AND worker counts. This holds because per-vertex RNG streams
// fix the sample multiset independent of schedule, fixed-point accumulation
// is exact and commutative, and the fully-sorted radix drain is a pure
// function of the accumulated multiset — shard routing and slot order are
// erased. Any nondeterminism introduced anywhere on the
// sampler→table→drain→CSR path breaks this test. See DESIGN.md "Numerics".
func TestSparsifierGolden(t *testing.T) {
	g := randGraph(t, 600, 3, 7)
	base := sampler.Config{T: 5, M: 400_000, Downsample: true, Seed: 99}

	build := func(shards, procs int) *sparse.CSR {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := base
		cfg.Shards = shards
		mat, stats, err := rawSparsifier(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Trials == 0 || mat.NNZ() == 0 {
			t.Fatalf("degenerate run: %d trials, %d nnz", stats.Trials, mat.NNZ())
		}
		return mat
	}

	golden := build(1, 1)
	for _, shards := range []int{1, 4, 16} {
		for _, procs := range []int{1, 4} {
			if shards == 1 && procs == 1 {
				continue
			}
			t.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(t *testing.T) {
				got := build(shards, procs)
				if got.NNZ() != golden.NNZ() {
					t.Fatalf("nnz %d, golden %d", got.NNZ(), golden.NNZ())
				}
				for i := range golden.RowPtr {
					if got.RowPtr[i] != golden.RowPtr[i] {
						t.Fatalf("rowPtr[%d] = %d, golden %d", i, got.RowPtr[i], golden.RowPtr[i])
					}
				}
				for i := range golden.ColIdx {
					if got.ColIdx[i] != golden.ColIdx[i] {
						t.Fatalf("colIdx[%d] = %d, golden %d", i, got.ColIdx[i], golden.ColIdx[i])
					}
					if got.Val[i] != golden.Val[i] {
						t.Fatalf("val[%d] = %v, golden %v (must be bit-identical)", i, got.Val[i], golden.Val[i])
					}
				}
			})
		}
	}
}

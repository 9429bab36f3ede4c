package graph

import (
	"fmt"
	"slices"
	"testing"

	"lightne/internal/rng"
)

// sameGraph fails unless got and want have the same vertex count and the
// same adjacency rows.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices, %d arcs; want %d, %d", what, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for u := 0; u < want.NumVertices(); u++ {
		if g, w := got.Neighbors(uint32(u), nil), want.Neighbors(uint32(u), nil); !slices.Equal(g, w) {
			t.Fatalf("%s: row %d = %v, want %v", what, u, g, w)
		}
	}
}

// TestWithEdgesMatchesFromEdges: merging sorted new edges into a simple graph
// gives the graph FromEdges builds from all edges, over batches that touch
// the first and last rows, hubs, isolated vertices and vertices past the
// current count, and batches of one edge and of none.
func TestWithEdgesMatchesFromEdges(t *testing.T) {
	src := rng.New(61, 0)
	for trial := 0; trial < 40; trial++ {
		n := 1 + src.Intn(60)
		var edges []Edge
		for k := src.Intn(4 * n); k > 0; k-- {
			edges = append(edges, Edge{uint32(src.Intn(n)), uint32(src.Intn(n))})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Simple() {
			t.Fatalf("trial %d: FromEdges graph not Simple", trial)
		}
		for batch := 0; batch < 4; batch++ {
			n2 := g.NumVertices() + src.Intn(3)*src.Intn(5)
			var keys []Edge
			for k := []int{0, 1, 3, 40}[src.Intn(4)]; k > 0; k-- {
				u, v := uint32(src.Intn(n2)), uint32(src.Intn(n2))
				if u == v {
					continue
				}
				u, v = min(u, v), max(u, v)
				if int(u) < g.NumVertices() && slices.Contains(g.Neighbors(u, nil), v) {
					continue
				}
				keys = append(keys, Edge{u, v})
			}
			slices.SortFunc(keys, cmpEdge)
			keys = slices.Compact(keys)
			merged, err := g.WithEdges(n2, keys)
			if err != nil {
				t.Fatal(err)
			}
			all := append(keys, allEdges(g)...)
			want, err := FromEdges(n2, all)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d batch %d (%d new edges, n %d → %d)", trial, batch, len(keys), g.NumVertices(), n2)
			sameGraph(t, what, merged, want)
			if !merged.Simple() {
				t.Fatalf("%s: merged graph not Simple", what)
			}
			g = merged
		}
	}
}

func cmpEdge(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// allEdges lists every arc of g.
func allEdges(g *Graph) []Edge {
	var out []Edge
	g.MapEdges(func(u, v uint32) { out = append(out, Edge{u, v}) })
	return out
}

// TestWithEdgesRejects: a batch that is unsorted, repeats an edge, holds an
// edge of the graph, a self loop, a reversed pair or a vertex past n, a
// shrinking n, and a compressed graph are errors, and the graph is unchanged.
func TestWithEdgesRejects(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	before := allEdges(g)
	for _, c := range []struct {
		n   int
		add []Edge
	}{
		{5, []Edge{{0, 3}, {0, 2}}},
		{5, []Edge{{0, 2}, {0, 2}}},
		{5, []Edge{{1, 2}}},
		{5, []Edge{{2, 2}}},
		{5, []Edge{{3, 0}}},
		{5, []Edge{{0, 5}}},
		{4, nil},
	} {
		if _, err := g.WithEdges(c.n, c.add); err == nil {
			t.Errorf("WithEdges(%d, %v) accepted", c.n, c.add)
		}
	}
	if !slices.Equal(allEdges(g), before) {
		t.Fatal("a rejected batch changed the graph")
	}
	cg, err := g.ToCompressed(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cg.WithEdges(5, []Edge{{0, 2}}); err == nil {
		t.Error("WithEdges on a compressed graph accepted")
	}
}

// TestSimple: only an uncompressed, unweighted graph with strictly ascending
// rows, no self loops and every reverse arc is Simple.
func TestSimple(t *testing.T) {
	csr := func(offsets []int64, edges []uint32) *Graph {
		g, err := FromCSR(offsets, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		name string
		g    *Graph
		want bool
	}{
		{"symmetric", csr([]int64{0, 1, 3, 4}, []uint32{1, 0, 2, 1}), true},
		{"empty", csr([]int64{0, 0, 0}, nil), true},
		{"asymmetric", csr([]int64{0, 1, 1}, []uint32{1}), false},
		{"self loop", csr([]int64{0, 2, 3}, []uint32{0, 1, 0}), false},
		{"repeated arc", csr([]int64{0, 2, 4}, []uint32{1, 1, 0, 0}), false},
		{"descending row", csr([]int64{0, 2, 3, 4}, []uint32{2, 1, 0, 0}), false},
		{"neighbor past n", csr([]int64{0, 1, 3}, []uint32{1, 0, 2}), false},
	} {
		if got := c.g.Simple(); got != c.want {
			t.Errorf("%s: Simple() = %v, want %v", c.name, got, c.want)
		}
	}
	cg, err := triangle(t).ToCompressed(0)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Simple() {
		t.Error("compressed graph reported Simple")
	}
}

package graph

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestEdgesRoundTrip pins Edges' contract on raw, compressed and mmap'd
// graphs: every undirected edge once, U < V, in ascending (U, V) order, and
// FromEdges over that list rebuilds the raw CSR exactly. The fixture keeps
// isolated vertices inside the ID range and past the largest listed ID,
// which survive because the vertex count is passed along. eval.SplitEdges
// shuffles this order, so its held-out edges depend on it.
func TestEdgesRoundTrip(t *testing.T) {
	arcs := rmatArcs(10, 8, 5)
	n := 1<<10 + 9
	raw, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Degree(uint32(n-1)) != 0 || slices.Index(raw.Degrees()[:1<<10], 0) < 0 {
		t.Fatal("fixture lacks isolated vertices inside and past the ID range")
	}
	comp, err := raw.ToCompressed(16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.lngc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := Mmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Munmap()
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"raw", raw}, {"compressed", comp}, {"mmap", mapped}} {
		edges := c.g.Edges()
		if int64(2*len(edges)) != c.g.NumEdges() {
			t.Fatalf("%s: %d edges listed for %d arcs", c.name, len(edges), c.g.NumEdges())
		}
		for i, e := range edges {
			if e.U >= e.V || i > 0 && (edges[i-1].U > e.U || edges[i-1].U == e.U && edges[i-1].V >= e.V) {
				t.Fatalf("%s: edge %d (%d,%d) breaks ascending U < V order", c.name, i, e.U, e.V)
			}
		}
		back, err := FromEdges(c.g.NumVertices(), edges)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back.offsets, raw.offsets) || !slices.Equal(back.edges, raw.edges) {
			t.Fatalf("%s: FromEdges(n, Edges()) differs from the graph", c.name)
		}
	}
}

// TestEdgesKeepsOneWayArcs lists a non-Simple graph's edges: a one-way arc
// stored only from the higher ID (3 → 0) and one stored only from the lower
// ID (1 → 4) are both kept as {min, max}, in ascending order among the
// two-way edges, and a self loop (2 → 2) is not listed, raw and compressed.
func TestEdgesKeepsOneWayArcs(t *testing.T) {
	// 0: 1 2    1: 0 4    2: 0 2 3    3: 0 2    4: (none)
	raw, err := FromCSR([]int64{0, 2, 4, 7, 9, 9}, []uint32{1, 2, 0, 4, 0, 2, 3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := raw.ToCompressed(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 3}}
	for _, g := range []*Graph{raw, comp} {
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("Edges() = %v, want %v", got, want)
		}
	}
}

// TestEdgesSimpleSkipMatchesSearch holds the listing of graphs built simple
// (FromEdges, WithEdges of one, ToCompressed of one), which skips the
// search for one-way arcs, to the searched listing of the same arrays
// wrapped by FromCSR. It also drops the arc from the lower ID of one edge in
// a FromCSR copy: the edge is still listed, from the arc left.
func TestEdgesSimpleSkipMatchesSearch(t *testing.T) {
	raw, err := FromEdges(1<<12+3, rmatArcs(12, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	grown, err := raw.WithEdges(raw.NumVertices()+2, []Edge{{0, 1<<12 + 4}, {7, 1<<12 + 3}})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := grown.ToCompressed(16)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"FromEdges": raw, "WithEdges": grown, "ToCompressed": comp} {
		if !g.simple {
			t.Fatalf("%s: not marked simple", name)
		}
		base := g
		if g.comp != nil {
			base = grown
		}
		searched, err := FromCSR(base.offsets, base.edges)
		if err != nil {
			t.Fatal(err)
		}
		if searched.simple {
			t.Fatal("FromCSR marked its graph simple")
		}
		if got, want := g.Edges(), searched.Edges(); !slices.Equal(got, want) {
			t.Fatalf("%s: listing without the search differs from the searched one", name)
		}
	}

	// Drop v→u for the first stored arc u→v with v < u.
	u := slices.IndexFunc(raw.offsets[1:], func(end int64) bool { return end > 0 })
	for raw.Degree(uint32(u)) == 0 || raw.edges[raw.offsets[u]] > uint32(u) {
		u++
	}
	v := raw.edges[raw.offsets[u]]
	drop := raw.offsets[v] + int64(slices.Index(raw.edges[raw.offsets[v]:raw.offsets[v+1]], uint32(u)))
	edges := slices.Delete(slices.Clone(raw.edges), int(drop), int(drop)+1)
	offsets := slices.Clone(raw.offsets)
	for r := int(v) + 1; r < len(offsets); r++ {
		offsets[r]--
	}
	oneWay, err := FromCSR(offsets, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := oneWay.Edges(), raw.Edges(); !slices.Equal(got, want) {
		t.Fatalf("dropping %d→%d changed the listing: %d edges, want %d", v, u, len(got), len(want))
	}
}

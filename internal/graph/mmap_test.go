package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lightne/internal/rng"
)

// testCompressedGraph builds a compressed random graph with some hubs.
func testCompressedGraph(t testing.TB, n, blockSize int) *Graph {
	t.Helper()
	s := rng.New(3, 1)
	var arcs []Edge
	for i := 0; i < n; i++ {
		arcs = append(arcs, Edge{uint32(i), uint32((i + 1) % n)})
		for k := 0; k < 4; k++ {
			arcs = append(arcs, Edge{uint32(i), uint32(s.Intn(n))})
		}
		// Hubs: everything also attaches to vertex 0 and 1.
		arcs = append(arcs, Edge{uint32(i), uint32(s.Intn(2))})
	}
	g, err := FromEdges(n, arcs)
	if err == nil {
		g, err = g.ToCompressed(blockSize)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameAdjacency fails unless a and b expose identical vertices, degrees and
// neighbor sequences through both Decode (Neighbors) and Nth (Neighbor).
func sameAdjacency(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for u := uint32(0); int(u) < a.NumVertices(); u++ {
		na, nb := a.Neighbors(u, nil), b.Neighbors(u, nil)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d idx %d: Decode %d vs %d", u, i, na[i], nb[i])
			}
			if bv := b.Neighbor(u, i); bv != na[i] {
				t.Fatalf("vertex %d idx %d: Nth %d want %d", u, i, bv, na[i])
			}
		}
	}
}

func TestLNGCStreamRoundtrip(t *testing.T) {
	g := testCompressedGraph(t, 300, 4)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Compressed() {
		t.Fatal("LNGC load lost compression")
	}
	if g2.edges != nil {
		t.Fatal("LNGC load materialized a CSR edge array")
	}
	sameAdjacency(t, g, g2)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMmapRoundtrip(t *testing.T) {
	g := testCompressedGraph(t, 500, 8)
	path := filepath.Join(t.TempDir(), "graph.lngc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Mmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Munmap()
	if !m.Compressed() {
		t.Fatal("mmap load lost compression")
	}
	// The whole point: cold start never builds the uncompressed edge array.
	if m.edges != nil {
		t.Fatal("mmap load materialized a CSR edge array")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("mapped graph fails validation: %v", err)
	}
	sameAdjacency(t, g, m)

	// Cursor lookups against the mapped graph match direct access.
	c := m.NewNeighborCursor()
	for u := uint32(0); int(u) < m.NumVertices(); u += 7 {
		d := m.Degree(u)
		c.Begin(u, d)
		for i := 0; i < d; i++ {
			if got, want := c.Neighbor(i), g.Neighbor(u, i); got != want {
				t.Fatalf("vertex %d idx %d: cursor %d want %d", u, i, got, want)
			}
		}
	}

	if err := m.Munmap(); err != nil {
		t.Fatal(err)
	}
	if err := m.Munmap(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestMmapRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Mmap(write("short", []byte("LNGC"))); err == nil {
		t.Fatal("expected short-file error")
	}
	if _, err := Mmap(write("garbage", bytes.Repeat([]byte{0xab}, 8192))); err == nil {
		t.Fatal("expected header error")
	}
	// A plain CSR file must be refused with a helpful error, not misparsed.
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Mmap(write("csr", buf.Bytes())); err == nil {
		t.Fatal("expected LNG1 rejection")
	}
	// Truncating the payload must be caught by section bounds or Validate.
	cg := testCompressedGraph(t, 100, 4)
	var cbuf bytes.Buffer
	if err := cg.WriteBinary(&cbuf); err != nil {
		t.Fatal(err)
	}
	whole := cbuf.Bytes()
	m, err := Mmap(write("trunc", whole[:len(whole)-len(whole)/4]))
	if err == nil {
		defer m.Munmap()
		if err := m.Validate(); err == nil {
			t.Fatal("truncated LNGC file both mapped and validated")
		}
	}
}

func TestToCompressedSharesStructure(t *testing.T) {
	s := rng.New(9, 0)
	var arcs []Edge
	for i := 0; i < 2000; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(400)), uint32(s.Intn(400))})
	}
	g, err := FromEdges(400, arcs)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := g.ToCompressed(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cg.Compressed() || cg.edges != nil {
		t.Fatal("ToCompressed kept the edge array")
	}
	sameAdjacency(t, g, cg)
	if cg2, err := cg.ToCompressed(0); err != nil || cg2 != cg {
		t.Fatal("ToCompressed on a compressed graph must be the identity")
	}
	wg, err := FromWeightedEdges(3, []WeightedEdge{{U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wg.ToCompressed(0); err == nil {
		t.Fatal("expected weighted rejection")
	}
}

// TestValidateHighDegreeCompressed pins the satellite fix: Validate on a
// compressed graph with a hub vertex is one sequential decode per vertex,
// not a per-index Nth loop that re-decodes block prefixes (O(degree ×
// blockSize) — ~200ms for a single 50k-degree hub before the fix).
func TestValidateHighDegreeCompressed(t *testing.T) {
	n := 50_000
	arcs := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		arcs = append(arcs, Edge{0, uint32(v)}) // star: vertex 0 has degree n-1
	}
	g, err := FromEdges(n, arcs)
	if err == nil {
		g, err = g.ToCompressed(0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborCursorUncompressed(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := g.NewNeighborCursor()
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		d := g.Degree(u)
		c.Begin(u, d)
		for i := 0; i < d; i++ {
			if c.Neighbor(i) != g.Neighbor(u, i) {
				t.Fatalf("cursor mismatch at vertex %d idx %d", u, i)
			}
		}
	}
}

// TestNeighborCursorCompressedMatchesNth checks the cursor on compressed
// graphs at block sizes 1, 2 and 64 against Neighbor (compress.Nth) in both
// modes: a run covering the vertex's blocks (the decoded list indexed
// directly) and a single lookup (lazy, block by block), and List against
// Neighbors.
func TestNeighborCursorCompressedMatchesNth(t *testing.T) {
	r := rng.New(9, 0)
	var arcs []Edge
	for i := 0; i < 6000; i++ {
		u := uint32(r.Intn(300))
		arcs = append(arcs, Edge{u, uint32(r.Intn(300))}, Edge{0, u}) // vertex 0 is a hub
	}
	for _, bs := range []int{1, 2, 64} {
		g, err := FromEdges(300, arcs)
		if err == nil {
			g, err = g.ToCompressed(bs)
		}
		if err != nil {
			t.Fatal(err)
		}
		c := g.NewNeighborCursor()
		for u := uint32(0); int(u) < g.NumVertices(); u++ {
			d := g.Degree(u)
			list := c.List(u)
			if want := g.Neighbors(u, nil); !slices.Equal(list, want) {
				t.Fatalf("bs=%d vertex %d: List %v, Neighbors %v", bs, u, list, want)
			}
			for _, k := range []int{d, 1} {
				c.Begin(u, k)
				for i := 0; i < d; i++ {
					if got, want := c.Neighbor(i), g.Neighbor(u, i); got != want {
						t.Fatalf("bs=%d vertex %d k=%d idx %d: cursor %d, Nth %d", bs, u, k, i, got, want)
					}
				}
			}
		}
	}
}

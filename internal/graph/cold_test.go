package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"lightne/internal/rng"
)

// fromEdgesOracle is the comparison-sort CSR build FromEdges replaced, kept
// as the differential oracle for the grouped build.
func fromEdgesOracle(n int, arcs []Edge) (offsets []int64, edges []uint32) {
	work := make([]Edge, 0, len(arcs)*2)
	for _, e := range arcs {
		if e.U != e.V {
			work = append(work, e, Edge{e.V, e.U})
		}
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].U != work[j].U {
			return work[i].U < work[j].U
		}
		return work[i].V < work[j].V
	})
	out := work[:0]
	for i, e := range work {
		if i > 0 && e == work[i-1] {
			continue
		}
		out = append(out, e)
	}
	work = out
	offsets = make([]int64, n+1)
	edges = make([]uint32, len(work))
	for i, e := range work {
		offsets[e.U+1]++
		edges[i] = e.V
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	return offsets, edges
}

// writeEdgeListOracle is the one-Fprintf-per-arc writer WriteEdgeList
// replaced.
func writeEdgeListOracle(g *Graph, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.n; u++ {
		for i, d := 0, g.Degree(uint32(u)); i < d; i++ {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, g.Neighbor(uint32(u), i)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// rmatArcs draws the arc list gen.RMAT builds its graph from (default
// quadrant probabilities), without importing gen (which imports graph).
func rmatArcs(scale, edgeFactor int, seed uint64) []Edge {
	a, b, c := 0.57, 0.19, 0.19
	src := rng.New(seed, 2)
	m := edgeFactor << scale
	arcs := make([]Edge, 0, m)
	for k := 0; k < m; k++ {
		var u, v uint32
		for level := 0; level < scale; level++ {
			switch r := src.Float64(); {
			case r < a:
			case r < a+b:
				v |= 1 << level
			case r < a+b+c:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		if u != v {
			arcs = append(arcs, Edge{u, v})
		}
	}
	return arcs
}

// randomMultigraph draws m arcs over n vertices with self-loops and
// duplicates left in.
func randomMultigraph(n, m int, seed uint64) []Edge {
	s := rng.New(seed, 0)
	arcs := make([]Edge, m)
	for i := range arcs {
		arcs[i] = Edge{uint32(s.Intn(n)), uint32(s.Intn(n))}
		if i%7 == 0 {
			arcs[i].V = arcs[i].U
		}
		if i%5 == 0 && i > 0 {
			arcs[i] = arcs[i-1]
		}
	}
	return arcs
}

func checkAgainstOracle(t testing.TB, n int, arcs []Edge) {
	t.Helper()
	g, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	offsets, edges := fromEdgesOracle(n, arcs)
	if len(g.offsets) != len(offsets) || len(g.edges) != len(edges) {
		t.Fatalf("n=%d: %d offsets / %d edges, oracle %d / %d", n, len(g.offsets), len(g.edges), len(offsets), len(edges))
	}
	for i := range offsets {
		if g.offsets[i] != offsets[i] {
			t.Fatalf("n=%d: offsets[%d] = %d, oracle %d", n, i, g.offsets[i], offsets[i])
		}
	}
	for i := range edges {
		if g.edges[i] != edges[i] {
			t.Fatalf("n=%d: edges[%d] = %d, oracle %d", n, i, g.edges[i], edges[i])
		}
	}
}

// TestFromEdgesMatchesOracle pins the grouped CSR build to the
// comparison-sort build on random multigraphs (self-loops and duplicates in;
// vertex counts from none to past 65 536, where the grouping's bucket keys
// take 64 bits) and on RMAT-12 arcs.
func TestFromEdgesMatchesOracle(t *testing.T) {
	for seed, size := range [][2]int{{1, 0}, {1, 1}, {5, 40}, {300, 5000}, {70000, 30000}} {
		checkAgainstOracle(t, size[0], randomMultigraph(size[0], size[1], uint64(seed)))
	}
	checkAgainstOracle(t, 1<<12, rmatArcs(12, 20, 1))
}

// FuzzFromEdges drives the grouped build and the oracle with the same arc
// list: the bytes after the first pair up into arcs over n = first byte + 1
// vertices.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 1, 1, 0, 1})
	f.Add([]byte{0})
	f.Add([]byte{255, 200, 3, 3, 200, 200, 3, 17, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) + 1
		var arcs []Edge
		for i := 1; i+1 < len(data); i += 2 {
			arcs = append(arcs, Edge{uint32(int(data[i]) % n), uint32(int(data[i+1]) % n)})
		}
		checkAgainstOracle(t, n, arcs)
	})
}

// TestWriteEdgeListMatchesOracle pins the line formatter byte for byte to
// the Fprintf writer on plain, compressed, weighted and non-simple graphs.
func TestWriteEdgeListMatchesOracle(t *testing.T) {
	plain, err := FromEdges(1<<12, rmatArcs(12, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := plain.ToCompressed(16)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := FromWeightedEdges(5, []WeightedEdge{{U: 0, V: 4, W: 2}, {U: 3, V: 1, W: 0.5}, {U: 4, V: 4, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// A self-loop at 1 and the one-way arc 2 → 0, as an LNG1 file can carry.
	loose, err := FromCSR([]int64{0, 0, 1, 2}, []uint32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"plain": plain, "compressed": compressed, "weighted": weighted, "loose": loose} {
		var got, want bytes.Buffer
		if err := g.WriteEdgeList(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeListOracle(g, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes written, oracle %d, contents differ", name, got.Len(), want.Len())
		}
	}
}

// BenchmarkFromEdges times the grouped CSR build next to the comparison-sort
// oracle on the harness's RMAT-12 and RMAT-13 arc lists.
func BenchmarkFromEdges(b *testing.B) {
	for _, scale := range []int{12, 13} {
		arcs := rmatArcs(scale, 20, 1)
		n := 1 << scale
		b.Run(fmt.Sprintf("rmat%d/grouped", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FromEdges(n, arcs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rmat%d/oracle", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fromEdgesOracle(n, arcs)
			}
		})
	}
}

// BenchmarkWriteEdgeList times the text writer next to the Fprintf oracle
// on the RMAT-12 graph.
func BenchmarkWriteEdgeList(b *testing.B) {
	g, err := FromEdges(1<<12, rmatArcs(12, 20, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"kernel", g.WriteEdgeList},
		{"oracle", func(w io.Writer) error { return writeEdgeListOracle(g, w) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := w.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package graph

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"lightne/internal/rng"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesSymmetrize(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("arcs=%d want 6", g.NumEdges())
	}
	for u := uint32(0); u < 3; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("deg(%d)=%d want 2", u, g.Degree(u))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopsAndDuplicates(t *testing.T) {
	arcs := []Edge{{0, 0}, {0, 1}, {0, 1}, {1, 0}}
	g, err := FromEdges(2, arcs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("arcs=%d want 2 (one undirected edge)", g.NumEdges())
	}
}

func TestOutOfRangeVertexRejected(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range vertex")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("expected error for negative n")
	}
}

func TestEmptyAndSingleVertex(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph mismatch")
	}
	g, err = FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 0 {
		t.Fatal("single vertex should be isolated")
	}
	r := rng.New(1, 0)
	if got := g.Walk(0, 5, r); got != 0 {
		t.Fatalf("walk from isolated vertex moved to %d", got)
	}
}

func TestCompressedEquivalence(t *testing.T) {
	arcs := []Edge{}
	n := 500
	s := rng.New(9, 0)
	for i := 0; i < 3000; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(n)), uint32(s.Intn(n))})
	}
	plain, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := plain.ToCompressed(7)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Compressed() || plain.Compressed() {
		t.Fatal("compression flags wrong")
	}
	if plain.NumEdges() != comp.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", plain.NumEdges(), comp.NumEdges())
	}
	for u := uint32(0); int(u) < n; u++ {
		a := plain.Neighbors(u, nil)
		b := comp.Neighbors(u, nil)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbor %d: %d vs %d", u, i, a[i], b[i])
			}
			if comp.Neighbor(u, i) != a[i] {
				t.Fatalf("compressed Neighbor(%d,%d) mismatch", u, i)
			}
		}
	}
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMapEdgesVisitsEveryArc(t *testing.T) {
	g := triangle(t)
	var count int64
	sum := int64(0)
	g.MapEdges(func(u, v uint32) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&sum, int64(u)+int64(v))
	})
	if count != 6 {
		t.Fatalf("visited %d arcs want 6", count)
	}
	// Each undirected edge {u,v} contributes (u+v) twice: (0+1+1+2+2+0)*2 = 12.
	if sum != 12 {
		t.Fatalf("sum=%d want 12", sum)
	}
}

func TestRandomNeighborDistribution(t *testing.T) {
	// Star graph: center 0 with leaves 1..4. Random neighbor of 0 must be
	// roughly uniform over leaves.
	arcs := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	g, err := FromEdges(5, arcs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123, 0)
	counts := make([]int, 5)
	const draws = 40000
	for i := 0; i < draws; i++ {
		v, ok := g.RandomNeighbor(0, r)
		if !ok {
			t.Fatal("center has neighbors")
		}
		counts[v]++
	}
	for v := 1; v <= 4; v++ {
		p := float64(counts[v]) / draws
		if math.Abs(p-0.25) > 0.02 {
			t.Fatalf("leaf %d probability %.3f", v, p)
		}
	}
}

func TestWalkStaysInGraph(t *testing.T) {
	arcs := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	g, err := FromEdges(4, arcs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77, 0)
	for i := 0; i < 1000; i++ {
		end := g.Walk(uint32(i%4), 1+i%10, r)
		if int(end) >= 4 {
			t.Fatalf("walk escaped: %d", end)
		}
	}
	// Walk parity on a 4-cycle (bipartite): even steps stay on same side.
	for i := 0; i < 200; i++ {
		end := g.Walk(0, 2, r)
		if end != 0 && end != 2 {
			t.Fatalf("2-step walk on 4-cycle ended at %d", end)
		}
	}
}

func TestLoadEdgeList(t *testing.T) {
	input := "# comment\n0 1\n1 2\n% another\n2 0\n"
	g, err := LoadEdgeList(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 6 {
		t.Fatalf("n=%d arcs=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 x\n"}
	for _, in := range cases {
		if _, err := LoadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestWriteEdgeListRoundtrip(t *testing.T) {
	g := triangle(t)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(strings.NewReader(sb.String()), g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip arcs %d want %d", g2.NumEdges(), g.NumEdges())
	}
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		a, b := g.Neighbors(u, nil), g2.Neighbors(u, nil)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d neighbors differ", u)
			}
		}
	}
}

func TestDegreesAndVolume(t *testing.T) {
	g := triangle(t)
	d := g.Degrees()
	want := []float64{2, 2, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Degrees=%v", d)
		}
	}
	if g.Volume() != 6 {
		t.Fatalf("Volume=%v want 6", g.Volume())
	}
}

func TestNeighborsSorted(t *testing.T) {
	s := rng.New(4, 0)
	n := 100
	var arcs []Edge
	for i := 0; i < 500; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(n)), uint32(s.Intn(n))})
	}
	g, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); int(u) < n; u++ {
		nbrs := g.Neighbors(u, nil)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("vertex %d neighbors unsorted: %v", u, nbrs)
		}
	}
}

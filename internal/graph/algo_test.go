package graph

import (
	"testing"

	"lightne/internal/rng"
)

func TestConnectedComponentsTwoIslands(t *testing.T) {
	arcs := []Edge{{0, 1}, {1, 2}, {3, 4}}
	g, err := FromEdges(6, arcs) // vertex 5 isolated
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components=%d want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("first island not merged")
	}
	if labels[3] != labels[4] {
		t.Fatal("second island not merged")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated vertex merged incorrectly")
	}
}

func TestConnectedComponentsRandomMatchesBFS(t *testing.T) {
	s := rng.New(7, 0)
	n := 300
	var arcs []Edge
	for i := 0; i < 350; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(n)), uint32(s.Intn(n))})
	}
	g, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := g.ConnectedComponents()
	// Two vertices share a component iff BFS reaches one from the other.
	for trial := 0; trial < 30; trial++ {
		u := uint32(s.Intn(n))
		dist := g.BFS(u)
		for v := 0; v < n; v++ {
			same := labels[u] == labels[v]
			reach := dist[v] >= 0
			if same != reach {
				t.Fatalf("components disagree with BFS: u=%d v=%d same=%v reach=%v", u, v, same, reach)
			}
		}
	}
}

func TestBFSDistances(t *testing.T) {
	// Path graph 0-1-2-3-4.
	arcs := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	g, err := FromEdges(5, arcs)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFS(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d]=%d want %d", i, dist[i], want)
		}
	}
	dist = g.BFS(2)
	for i, want := range []int32{2, 1, 0, 1, 2} {
		if dist[i] != want {
			t.Fatalf("from 2: dist[%d]=%d want %d", i, dist[i], want)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	// Star with 4 leaves: one vertex of degree 4, four of degree 1.
	arcs := []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}
	g, err := FromEdges(6, arcs) // vertex 5 has degree 0
	if err != nil {
		t.Fatal(err)
	}
	h := g.DegreeHistogram()
	if h[0] != 1 || h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram %v", h)
	}
	var total int64
	for _, c := range h {
		total += c
	}
	if total != 6 {
		t.Fatalf("histogram sums to %d", total)
	}
}

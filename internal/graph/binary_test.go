package graph

import (
	"bytes"
	"strings"
	"testing"

	"lightne/internal/rng"
)

func TestBinaryRoundtrip(t *testing.T) {
	s := rng.New(7, 0)
	n := 200
	var arcs []Edge
	for i := 0; i < 1500; i++ {
		arcs = append(arcs, Edge{uint32(s.Intn(n)), uint32(s.Intn(n))})
	}
	g, err := FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != n || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", g2.NumVertices(), g2.NumEdges(), n, g.NumEdges())
	}
	for u := uint32(0); int(u) < n; u++ {
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

func TestBinaryRoundtripCompressedSource(t *testing.T) {
	// A compressed graph serializes to LNGC and reloads compressed without
	// re-encoding.
	arcs := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	g, err := FromEdges(4, arcs)
	if err == nil {
		g, err = g.ToCompressed(0)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Compressed() || g2.BlockSize() != g.BlockSize() {
		t.Fatal("compression lost on load")
	}
	for u := uint32(0); u < 4; u++ {
		a, b := g.Neighbors(u, nil), g2.Neighbors(u, nil)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("neighbors differ after compressed roundtrip")
			}
		}
	}
}

// TestBinaryWeightedRejected pins WriteBinary's behavior per input kind:
// weighted graphs are rejected with a clear error (LNG1/LNGC carry no
// weights section — writing would silently drop them), while an unweighted
// graph built through the same constructor path round-trips losslessly.
func TestBinaryWeightedRejected(t *testing.T) {
	wg, err := FromWeightedEdges(3, []WeightedEdge{
		{0, 1, 2.5}, {1, 2, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wg.WriteBinary(&buf); err == nil {
		t.Fatal("WriteBinary accepted a weighted graph (weights would be dropped)")
	} else if !strings.Contains(err.Error(), "weighted") {
		t.Fatalf("rejection should name the weighted cause, got: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected write still emitted %d bytes", buf.Len())
	}

	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Weighted() {
		t.Fatal("round-tripped unweighted graph reports weights")
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch after roundtrip: %d/%d", g2.NumVertices(), g2.NumEdges())
	}
	for u := uint32(0); u < 3; u++ {
		a, b := g.Neighbors(u, nil), g2.Neighbors(u, nil)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("neighbors differ after roundtrip")
			}
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXXYYYYYYYYZZZZZZZZ"))); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncated payload.
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

package gen

import (
	"math"
	"sync/atomic"
	"testing"

	"lightne/internal/rng"
)

func TestPairFromIndex(t *testing.T) {
	// Enumerate and verify the inverse mapping for a prefix.
	idx := int64(0)
	for j := int64(1); j < 60; j++ {
		for i := int64(0); i < j; i++ {
			gi, gj := pairFromIndex(idx)
			if gi != i || gj != j {
				t.Fatalf("idx=%d: got (%d,%d) want (%d,%d)", idx, gi, gj, i, j)
			}
			idx++
		}
	}
}

func TestSkipNextMatchesBernoulliRate(t *testing.T) {
	src := rng.New(1, 0)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		total := int64(200000)
		var count int64
		for idx := skipNext(src, p, -1); idx < total; idx = skipNext(src, p, idx) {
			count++
		}
		got := float64(count) / float64(total)
		if math.Abs(got-p) > 0.05*p+0.002 {
			t.Fatalf("p=%g: selection rate %g", p, got)
		}
	}
	// p = 1 selects every index.
	if skipNext(src, 1, 5) != 6 {
		t.Fatal("p=1 must advance by exactly 1")
	}
}

func TestSBMStructure(t *testing.T) {
	g, labels, err := SBM(SBMConfig{N: 600, Communities: 3, PIn: 0.2, POut: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 600 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if len(labels.Of) != 600 || labels.NumClasses != 3 {
		t.Fatal("labels malformed")
	}
	// Every vertex has exactly one community (no overlap requested).
	for v, ls := range labels.Of {
		if len(ls) != 1 {
			t.Fatalf("vertex %d has %d labels", v, len(ls))
		}
	}
	// Count within vs across edges; within-rate must dominate.
	var withinN, acrossN atomic.Int64 // MapEdges calls back in parallel
	g.MapEdges(func(u, v uint32) {
		if labels.Of[u][0] == labels.Of[v][0] {
			withinN.Add(1)
		} else {
			acrossN.Add(1)
		}
	})
	within, across := withinN.Load(), acrossN.Load()
	if within < 4*across {
		t.Fatalf("community structure weak: within=%d across=%d", within, across)
	}
	// Empirical within-community density close to PIn.
	perBlock := 200.0
	expWithin := 3 * perBlock * (perBlock - 1) / 2 * 0.2
	if math.Abs(float64(within)/2-expWithin) > 0.25*expWithin {
		t.Fatalf("within edges %d far from expectation %.0f", within/2, expWithin)
	}
}

func TestSBMOverlap(t *testing.T) {
	_, labels, err := SBM(SBMConfig{N: 2000, Communities: 5, PIn: 0.05, POut: 0.005, OverlapProb: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, ls := range labels.Of {
		if len(ls) > 1 {
			multi++
		}
		for i := 1; i < len(ls); i++ {
			if ls[i] <= ls[i-1] {
				t.Fatal("labels not sorted/unique")
			}
		}
	}
	// Roughly overlapProb·(1 - 1/k) of vertices should carry two labels.
	want := 2000 * 0.5 * 0.8
	if math.Abs(float64(multi)-want) > 0.2*want {
		t.Fatalf("multi-label count %d far from %f", multi, want)
	}
}

func TestSBMDeterministic(t *testing.T) {
	a, la, err := SBM(SBMConfig{N: 300, Communities: 4, PIn: 0.1, POut: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, lb, err := SBM(SBMConfig{N: 300, Communities: 4, PIn: 0.1, POut: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed different edge counts")
	}
	for v := range la.Of {
		if len(la.Of[v]) != len(lb.Of[v]) {
			t.Fatal("same seed different labels")
		}
	}
}

func TestSBMErrors(t *testing.T) {
	if _, _, err := SBM(SBMConfig{N: 0, Communities: 2}); err == nil {
		t.Fatal("expected N error")
	}
	if _, _, err := SBM(SBMConfig{N: 10, Communities: 2, PIn: 1.5}); err == nil {
		t.Fatal("expected probability error")
	}
}

func TestChungLuPowerLaw(t *testing.T) {
	g, err := ChungLu(ChungLuConfig{N: 5000, AvgDegree: 12, Exponent: 2.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st := Describe("cl", g)
	if math.Abs(st.AvgDegree-12) > 4 {
		t.Fatalf("avg degree %.1f far from 12", st.AvgDegree)
	}
	// Heavy tail: max degree far above average.
	if st.MaxDegree < 5*int(st.AvgDegree) {
		t.Fatalf("max degree %d not heavy-tailed (avg %.1f)", st.MaxDegree, st.AvgDegree)
	}
	// Early (high-weight) vertices should out-degree late ones on average.
	var early, late float64
	for v := 0; v < 100; v++ {
		early += float64(g.Degree(uint32(v)))
		late += float64(g.Degree(uint32(4900 + v)))
	}
	if early <= 2*late {
		t.Fatalf("degree skew missing: early=%.0f late=%.0f", early, late)
	}
}

func TestChungLuErrors(t *testing.T) {
	if _, err := ChungLu(ChungLuConfig{N: 0, AvgDegree: 5}); err == nil {
		t.Fatal("expected N error")
	}
	if _, err := ChungLu(ChungLuConfig{N: 10, AvgDegree: 5, Exponent: 0.5}); err == nil {
		t.Fatal("expected exponent error")
	}
}

func TestRMATSkew(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 11, EdgeFactor: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2048 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	st := Describe("rmat", g)
	if st.MaxDegree < 4*int(st.AvgDegree) {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0, EdgeFactor: 4}); err == nil {
		t.Fatal("expected scale error")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, EdgeFactor: 4, A: 0.8, B: 0.3, C: 0.1}); err == nil {
		t.Fatal("expected probability error")
	}
}

func TestAllDatasetsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow in -short mode")
	}
	for _, name := range AllNames() {
		ds, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Graph.NumVertices() == 0 || ds.Graph.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if err := ds.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.PaperN == 0 || ds.PaperM == 0 {
			t.Fatalf("%s: missing paper-scale metadata", name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("expected unknown dataset error")
	}
}

func TestDescribeEmpty(t *testing.T) {
	g, err := ChungLu(ChungLuConfig{N: 10, AvgDegree: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	st := Describe("x", g)
	if st.Name != "x" || st.N != 10 {
		t.Fatal("Describe basic fields wrong")
	}
}

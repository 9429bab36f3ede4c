package gen

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestCommunityPowerLawStructure(t *testing.T) {
	g, labels, err := CommunityPowerLaw(CommunityPowerLawConfig{
		N: 3000, Communities: 30, AvgDegree: 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	st := Describe("cpl", g)
	if math.Abs(st.AvgDegree-12) > 5 {
		t.Fatalf("avg degree %.1f far from 12", st.AvgDegree)
	}
	// Every vertex got exactly one community label.
	sizes := make([]int, 30)
	for v, ls := range labels.Of {
		if len(ls) != 1 {
			t.Fatalf("vertex %d has %d labels", v, len(ls))
		}
		sizes[ls[0]]++
	}
	// Zipf sizes: the largest community far exceeds the smallest nonzero.
	maxSz, minSz := 0, 1<<30
	for _, s := range sizes {
		if s > maxSz {
			maxSz = s
		}
		if s > 0 && s < minSz {
			minSz = s
		}
	}
	if maxSz < 4*minSz {
		t.Fatalf("community sizes not heavy-tailed: max=%d min=%d", maxSz, minSz)
	}
	// Within-community edges dominate.
	var withinN, acrossN atomic.Int64 // MapEdges calls back in parallel
	g.MapEdges(func(u, v uint32) {
		if labels.Of[u][0] == labels.Of[v][0] {
			withinN.Add(1)
		} else {
			acrossN.Add(1)
		}
	})
	within, across := withinN.Load(), acrossN.Load()
	if within < 2*across {
		t.Fatalf("clustering weak: within=%d across=%d", within, across)
	}
}

func TestCommunityPowerLawErrors(t *testing.T) {
	if _, _, err := CommunityPowerLaw(CommunityPowerLawConfig{N: 0, Communities: 2, AvgDegree: 3}); err == nil {
		t.Fatal("expected N error")
	}
}

func TestSBMDegreeSkewProducesHubs(t *testing.T) {
	uniform, _, err := SBM(SBMConfig{N: 3000, Communities: 6, PIn: 0.02, POut: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	skewed, _, err := SBM(SBMConfig{N: 3000, Communities: 6, PIn: 0.02, POut: 0.002, DegreeSkew: 2.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	su := Describe("u", uniform)
	ss := Describe("s", skewed)
	// Comparable average degree...
	if math.Abs(su.AvgDegree-ss.AvgDegree) > 0.5*su.AvgDegree {
		t.Fatalf("avg degrees diverged: %.1f vs %.1f", su.AvgDegree, ss.AvgDegree)
	}
	// ...but the skewed variant has a much heavier tail.
	if ss.MaxDegree < 2*su.MaxDegree {
		t.Fatalf("skew missing: max degree %d (skewed) vs %d (uniform)", ss.MaxDegree, su.MaxDegree)
	}
}

func TestSBMDegreeSkewKeepsCommunities(t *testing.T) {
	g, labels, err := SBM(SBMConfig{N: 2000, Communities: 4, PIn: 0.03, POut: 0.002, DegreeSkew: 2.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var withinN, acrossN atomic.Int64 // MapEdges calls back in parallel
	g.MapEdges(func(u, v uint32) {
		shared := false
		for _, a := range labels.Of[u] {
			for _, b := range labels.Of[v] {
				if a == b {
					shared = true
				}
			}
		}
		if shared {
			withinN.Add(1)
		} else {
			acrossN.Add(1)
		}
	})
	within, across := withinN.Load(), acrossN.Load()
	if within < 2*across {
		t.Fatalf("degree-corrected SBM lost community structure: within=%d across=%d", within, across)
	}
}

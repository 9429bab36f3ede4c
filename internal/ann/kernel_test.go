package ann

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lightne/internal/core"
	"lightne/internal/gen"
	"lightne/internal/par"
	"lightne/internal/quant"
	"lightne/internal/rng"
)

// nearestCentroidOracle is the scalar kernel nearestCentroid replaced: one
// centroid per pass, both float32 operands widened inside every multiply.
func nearestCentroidOracle(row []float32, centroids []float32, d, nlist int) int32 {
	best, bestDot := int32(0), math.Inf(-1)
	for c := 0; c < nlist; c++ {
		cent := centroids[c*d : (c+1)*d]
		var dot float64
		for j, x := range row {
			dot += float64(x) * float64(cent[j])
		}
		if dot > bestDot {
			best, bestDot = int32(c), dot
		}
	}
	return best
}

// assignScalar is the assignment Build ran before the tiled kernel.
func assignScalar(assign []int32, row func(int, []float32) []float32, centroids []float32, d, nlist int) {
	par.ForRange(len(assign), 64, func(lo, hi int) {
		buf := make([]float32, d)
		for i := lo; i < hi; i++ {
			assign[i] = nearestCentroidOracle(row(i, buf), centroids, d, nlist)
		}
	})
}

// TestNearestCentroidMatchesScalar covers every remainder of nlist mod 4,
// exact ties (duplicated centroids, a zero row) and NaN-free random data.
func TestNearestCentroidMatchesScalar(t *testing.T) {
	s := rng.New(7, 0)
	for _, d := range []int{1, 3, 16} {
		for nlist := 1; nlist <= 9; nlist++ {
			cents := make([]float32, nlist*d)
			for i := range cents {
				cents[i] = float32(s.NormFloat64())
			}
			if nlist > 2 {
				copy(cents[2*d:3*d], cents[:d]) // centroid 2 ties centroid 0
			}
			wide := make([]float64, len(cents))
			for i, x := range cents {
				wide[i] = float64(x)
			}
			for trial := 0; trial < 50; trial++ {
				row := make([]float32, d)
				if trial > 0 {
					for j := range row {
						row[j] = float32(s.NormFloat64())
					}
				}
				rowWide := make([]float64, d)
				for j, x := range row {
					rowWide[j] = float64(x)
				}
				got, want := nearestCentroid(rowWide, wide, nlist), nearestCentroidOracle(row, cents, d, nlist)
				if got != want {
					t.Fatalf("d=%d nlist=%d trial %d: centroid %d, oracle %d", d, nlist, trial, got, want)
				}
			}
		}
	}
}

// sameIndex fails unless a and b have bit-identical centroids, offsets and
// posting lists.
func sameIndex(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if len(a.centroids) != len(b.centroids) || len(a.start) != len(b.start) || len(a.ids) != len(b.ids) {
		t.Fatalf("%s: layouts differ", what)
	}
	for i := range a.centroids {
		if math.Float32bits(a.centroids[i]) != math.Float32bits(b.centroids[i]) {
			t.Fatalf("%s: centroid word %d differs", what, i)
		}
	}
	for i := range a.start {
		if a.start[i] != b.start[i] {
			t.Fatalf("%s: start[%d] differs", what, i)
		}
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			t.Fatalf("%s: ids[%d] differs", what, i)
		}
	}
}

// TestBuildMatchesScalarOracle builds each index with the tiled kernel and
// with the scalar one it replaced, at GOMAXPROCS 1 and 2: clustered
// synthetic embeddings (float32 and int8, nlist a multiple of 4 and not)
// and LightNE's own RMAT-12 embedding at the serving defaults.
func TestBuildMatchesScalarOracle(t *testing.T) {
	type tc struct {
		name string
		v    Vectors
		cfg  Config
	}
	cases := []tc{
		{"clustered-f32", quant.ToFloat32(clusteredMatrix(3_000, 8, 12, 0.2, 41)), Config{NList: 24, Seed: 17}},
		{"clustered-int8", quant.ToInt8(clusteredMatrix(5_000, 16, 20, 0.15, 3)), Config{NList: 37, Seed: 5}},
	}
	if !testing.Short() {
		g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Embed(g, core.DefaultConfig(64))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"rmat12", quant.ToFloat32(res.Embedding), Config{}})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			tiled, err := Build(c.v, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := build(c.v, c.cfg, assignScalar)
			if err != nil {
				t.Fatal(err)
			}
			sameIndex(t, fmt.Sprintf("%s GOMAXPROCS=%d", c.name, procs), scalar, tiled)
		}
	}
}

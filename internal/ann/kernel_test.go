package ann

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/gen"
	"lightne/internal/par"
	"lightne/internal/quant"
	"lightne/internal/rng"
)

// nearestCentroidOracle is the scalar kernel the row accumulate replaced: one
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

// assignScalar is the assignment Build ran before the row accumulate: each
// row narrowed back to the float32 it was widened from (exact) and scored by
// nearestCentroidOracle.
func assignScalar(assign []int32, row func(int, []float32, []float64) []float64, centroids []float32, d, nlist int) {
	par.ForRange(len(assign), 64, func(lo, hi int) {
		f32, f64, narrow := make([]float32, d), make([]float64, d), make([]float32, d)
		for i := lo; i < hi; i++ {
			for j, x := range row(i, f32, f64) {
				narrow[j] = float32(x)
			}
			assign[i] = nearestCentroidOracle(narrow, centroids, d, nlist)
		}
	})
}

// routeOracle is the routing Search ran before the row accumulate: a
// parallel loop over the centroids, each a scalar dot against the query.
func routeOracle(ix *Index, v Vectors, q, nprobe int) []int {
	d := ix.dims
	buf := make([]float32, d)
	v.DequantTo(buf, q)
	cs := make([]float64, ix.nlist)
	par.For(ix.nlist, 64, func(c int) {
		cent := ix.centroids[c*d : (c+1)*d]
		var dot float64
		for j, x := range buf {
			dot += float64(x) * float64(cent[j])
		}
		cs[c] = dot
	})
	probe, _ := quant.SelectTopK(cs, nprobe)
	return probe
}

// TestRouterMatchesScalar holds the row scorer to the scalar loop on every
// kernel form: each score bit for bit against the one-centroid dot, and
// nearest against nearestCentroidOracle. nlist runs through every remainder
// of the AVX loop's four columns and around the AVX-512 loop's 64, with
// exact ties (centroid 2 and the last centroid duplicate centroid 0) and a
// zero row, whose scores all tie at zero.
func TestRouterMatchesScalar(t *testing.T) {
	s := rng.New(7, 0)
	dense.ForEachKernel(func(kernel string) {
		for _, d := range []int{1, 3, 16, 32, 64} {
			for _, nlist := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 91, 128, 129} {
				cents := make([]float32, nlist*d)
				for i := range cents {
					cents[i] = float32(s.NormFloat64())
				}
				if nlist > 2 {
					copy(cents[2*d:3*d], cents[:d])
					copy(cents[(nlist-1)*d:], cents[:d])
				}
				r := newRouter(cents, d, nlist)
				scores := make([]float64, r.ct.Cols)
				for trial := 0; trial < 20; trial++ {
					row := make([]float32, d)
					if trial > 0 {
						for j := range row {
							row[j] = float32(s.NormFloat64())
						}
					}
					wide := widen(make([]float64, d), row)
					got, want := r.nearest(scores, wide), nearestCentroidOracle(row, cents, d, nlist)
					if got != want {
						t.Fatalf("%s d=%d nlist=%d trial %d: centroid %d, oracle %d", kernel, d, nlist, trial, got, want)
					}
					for c, score := range r.score(scores, wide) {
						var dot float64
						for j, x := range row {
							dot += float64(x) * float64(cents[c*d+j])
						}
						if math.Float64bits(score) != math.Float64bits(dot) {
							t.Fatalf("%s d=%d nlist=%d trial %d: score %d = %v, scalar %v", kernel, d, nlist, trial, c, score, dot)
						}
					}
				}
			}
		}
	})
}

// sameIndex fails unless a and b have bit-identical centroids, routing
// layouts, offsets and posting lists.
func sameIndex(t *testing.T, what string, a, b *Index) {
	t.Helper()
	if len(a.centroids) != len(b.centroids) || len(a.ct.Data) != len(b.ct.Data) || len(a.start) != len(b.start) || len(a.ids) != len(b.ids) {
		t.Fatalf("%s: layouts differ", what)
	}
	for i := range a.centroids {
		if math.Float32bits(a.centroids[i]) != math.Float32bits(b.centroids[i]) {
			t.Fatalf("%s: centroid word %d differs", what, i)
		}
	}
	for i := range a.ct.Data {
		if math.Float64bits(a.ct.Data[i]) != math.Float64bits(b.ct.Data[i]) {
			t.Fatalf("%s: Cᵀ word %d differs", what, i)
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

// tiedMatrix is a clustered fixture with exact ties: every 17th row repeats
// row 0, so k-means can start from duplicate centroids, and row 1 is zero,
// so all of its scores tie.
func tiedMatrix(n, d int, seed uint64) *dense.Matrix {
	x := clusteredMatrix(n, d, 16, 0.3, seed)
	for i := 17; i < n; i += 17 {
		copy(x.Row(i), x.Row(0))
	}
	clear(x.Row(1))
	return x
}

type buildCase struct {
	name string
	v    Vectors
	cfg  Config
}

// embedCase embeds an RMAT graph with cfg and indexes it at the serving
// defaults.
func embedCase(t *testing.T, name string, scale int, cfg core.Config) buildCase {
	t.Helper()
	g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Embed(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buildCase{name, quant.ToFloat32(res.Embedding), Config{}}
}

// TestBuildMatchesScalarOracle builds each index on every kernel form of
// the row accumulate and with the scalar kernel it replaced, at GOMAXPROCS 1
// and 2: clustered synthetic embeddings (float32 and int8), column counts
// around the kernel widths (nlist 3, 4, 63, 64, 65, 128, 129 at d 1, 3, 32,
// 64) on fixtures with exact ties and a zero row, and, without -short, the
// two serving shapes of the benchmark: LightNE's own RMAT-12 embedding at
// d = 64 (nlist 64) and the RMAT-13 sketch-path embedding at d = 32
// (nlist 91), both at the serving defaults.
func TestBuildMatchesScalarOracle(t *testing.T) {
	cases := []buildCase{
		{"clustered-f32", quant.ToFloat32(clusteredMatrix(3_000, 8, 12, 0.2, 41)), Config{NList: 24, Seed: 17}},
		{"clustered-int8", quant.ToInt8(clusteredMatrix(5_000, 16, 20, 0.15, 3)), Config{NList: 37, Seed: 5}},
	}
	for _, d := range []int{1, 3, 32, 64} {
		for _, nlist := range []int{3, 4, 63, 64, 65, 128, 129} {
			x := tiedMatrix(2*nlist+100, d, uint64(nlist*d))
			cases = append(cases, buildCase{fmt.Sprintf("tied-d%d-nlist%d", d, nlist), quant.ToFloat32(x), Config{NList: nlist, Seed: 9}})
		}
	}
	if !testing.Short() {
		cases = append(cases, embedCase(t, "rmat12-d64", 12, core.DefaultConfig(64)))
		sketch := core.DefaultConfig(32)
		sketch.SampleMultiple, sketch.SkipPropagation = 2, true
		sketch.BatchedWalks, sketch.Shards, sketch.StreamedSVD = true, 4, true
		cases = append(cases, embedCase(t, "rmat13-sketch-d32", 13, sketch))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			scalar, err := build(c.v, c.cfg, assignScalar)
			if err != nil {
				t.Fatal(err)
			}
			dense.ForEachKernel(func(kernel string) {
				ix, err := Build(c.v, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameIndex(t, fmt.Sprintf("%s %s GOMAXPROCS=%d", c.name, kernel, procs), scalar, ix)
			})
		}
	}
}

// TestSearchRoutingMatchesOracle routes every row of a clustered embedding
// (with exact ties and a zero row) through the index and through the
// per-centroid parallel routing it replaced, at nlist 1, 5, 63, 64, 65 and
// 91, on every kernel form, at GOMAXPROCS 1 and 2: the probe lists must be
// identical, and Search's answers and scanned counts must equal a scan of
// the oracle's probe lists.
func TestSearchRoutingMatchesOracle(t *testing.T) {
	const n, d, k = 800, 16, 10
	e := quant.ToFloat32(tiedMatrix(n, d, 5))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, nlist := range []int{1, 5, 63, 64, 65, 91} {
		ix, err := Build(e, Config{NList: nlist, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nprobe := max(1, nlist/8)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			dense.ForEachKernel(func(kernel string) {
				for q := 0; q < n; q++ {
					want := routeOracle(ix, e, q, nprobe)
					if got := ix.route(e, q, nprobe); !slices.Equal(got, want) {
						t.Fatalf("nlist=%d %s GOMAXPROCS=%d row %d: probes %v, oracle %v", nlist, kernel, procs, q, got, want)
					}
					ids, sims, scanned, err := ix.Search(e, q, k, nprobe)
					if err != nil {
						t.Fatal(err)
					}
					wantIDs, wantSims, wantScanned := scanProbes(ix, e, q, k, want)
					if scanned != wantScanned || !slices.Equal(ids, wantIDs) || !slices.Equal(sims, wantSims) {
						t.Fatalf("nlist=%d %s GOMAXPROCS=%d row %d: Search (%v, %d scanned), oracle scan (%v, %d)", nlist, kernel, procs, q, ids, scanned, wantIDs, wantScanned)
					}
				}
			})
		}
	}
}

// scanProbes is Search's candidate scan over the given probe lists, serially:
// the answers and scanned count of a Search that routed to probe.
func scanProbes(ix *Index, v Vectors, q, k int, probe []int) ([]int, []float64, int) {
	var cands []int32
	for _, c := range probe {
		cands = append(cands, ix.ids[ix.start[c]:ix.start[c+1]]...)
	}
	sims := make([]float64, len(cands))
	for i, id := range cands {
		sims[i] = math.Inf(-1)
		if int(id) != q {
			sims[i] = v.Cosine(q, int(id))
		}
	}
	pos, vals := quant.SelectTopK(sims, k)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = int(cands[p])
	}
	return out, vals, len(cands)
}

package hashtable_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/rng"
	"lightne/internal/sampler"
)

// harnessPairs samples an embed-default-shaped graph once (RMAT-12, edge
// factor 20) with the incremental pass over every arc at T = 10 and ten
// trials per arc, downsampled: one pair per head in both orientations, as a
// table-based pass would insert them, shuffled.
var harnessPairs = sync.OnceValue(func() harnessCase {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 7})
	if err != nil {
		panic(err)
	}
	segKeys, segFixed, _, err := sampler.SampleArcs(g, g.Edges(), 10, sampler.Config{T: 10, Downsample: true, Seed: 7})
	if err != nil {
		panic(err)
	}
	h := harnessCase{g: g}
	for s, seg := range segKeys {
		for i, k := range seg {
			h.keys, h.fixed = append(h.keys, k), append(h.fixed, segFixed[s][i])
			if u, v := hashtable.UnpackKey(k); u != v {
				h.keys, h.fixed = append(h.keys, hashtable.Key(v, u)), append(h.fixed, segFixed[s][i])
			}
		}
	}
	s := rng.New(12, 0)
	for i := len(h.keys) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
		h.fixed[i], h.fixed[j] = h.fixed[j], h.fixed[i]
	}
	return h
})

// harnessCase is the sampled RMAT-12 graph with its oriented pairs.
type harnessCase struct {
	g           *graph.Graph
	keys, fixed []uint64
}

// syntheticPairs draws n pairs over rows [0, numRows) and columns [0, cols),
// a hub fraction of them on row hub.
func syntheticPairs(seed uint64, n, numRows, cols, hub int, hubFrac float64) (keys, fixed []uint64) {
	s := rng.New(seed, 0)
	for i := 0; i < n; i++ {
		u := uint32(s.Intn(numRows))
		if s.Float64() < hubFrac {
			u = uint32(hub)
		}
		keys = append(keys, hashtable.Key(u, uint32(s.Intn(cols))))
		fixed = append(fixed, uint64(1+s.Intn(1<<22)))
	}
	return keys, fixed
}

// drainCase is a batch of weighted pairs grouped over numRows rows.
type drainCase struct {
	name        string
	keys, fixed []uint64
	numRows     int
}

// drainCases are the weighted grouping sweep's inputs: the sampled RMAT-12
// pairs; no pairs; synthetic pairs around the bucket geometry's edges (one
// row, 255–257 rows, a non-power of two); a hub row; rows and columns that
// need 64-bit bucket keys together; heavy duplication with weights whose
// float64 sums would round.
func drainCases() []drainCase {
	h := harnessPairs()
	cases := []drainCase{{"rmat12/sampled", h.keys, h.fixed, h.g.NumVertices()}}
	for _, numRows := range []int{0, 1, 5} {
		cases = append(cases, drainCase{fmt.Sprintf("empty/rows=%d", numRows), nil, nil, numRows})
	}
	for _, numRows := range []int{1, 255, 256, 257, 1000, 4099} {
		for _, n := range []int{1, 3000, 40000} {
			keys, fixed := syntheticPairs(uint64(numRows*n), n, numRows, 70000, numRows-1, 0)
			cases = append(cases, drainCase{fmt.Sprintf("rows=%d/pairs=%d", numRows, n), keys, fixed, numRows})
		}
	}
	// One hub row holding more entries than an average bucket many times
	// over, and columns spanning all 32 bits.
	keys, fixed := syntheticPairs(9, 200000, 3000, 1<<31, 1234, 0.2)
	keys = append(keys, hashtable.Key(17, 0xffffffff), hashtable.Key(2999, 0))
	fixed = append(fixed, 5, 6)
	cases = append(cases, drainCase{"hub", keys, fixed, 3000})
	wide, wideFixed := syntheticPairs(4, 50000, 100000, 1<<20, 99999, 0.1)
	cases = append(cases, drainCase{"wide", wide, wideFixed, 100000})
	dup, dupFixed := syntheticPairs(6, 60000, 40, 30, 3, 0.5)
	for i := range dupFixed {
		dupFixed[i] += uint64(i%4096) << 40
	}
	return append(cases, drainCase{"duplicated", dup, dupFixed, 40})
}

// sortOracle groups weighted pairs with the standard library: sort by key,
// sum each run of equal keys in fixed point, count the rows. It shares no
// code with GroupCSR.
func sortOracle(keys, fixed []uint64, numRows int) (rowPtr []int64, cols []uint32, ws []float64) {
	type pair struct{ key, fixed uint64 }
	pairs := make([]pair, len(keys))
	for i := range pairs {
		pairs[i] = pair{keys[i], fixed[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	rowPtr = make([]int64, numRows+1)
	for i := 0; i < len(pairs); {
		k, f := pairs[i].key, pairs[i].fixed
		for i++; i < len(pairs) && pairs[i].key == k; i++ {
			f += pairs[i].fixed
		}
		rowPtr[k>>32+1]++
		cols, ws = append(cols, uint32(k)), append(ws, hashtable.FromFixed(f))
	}
	for r := 0; r < numRows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return rowPtr, cols, ws
}

// TestDrainCSRBitIdenticalToRadixOracle: GroupCSR's bucket sort returns
// exactly the arrays of a standard-library sort of the weighted pairs, equal
// keys summed in fixed point, for every worker count and row count; a
// source row past numRows panics. See DESIGN.md "Numerics".
func TestDrainCSRBitIdenticalToRadixOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range drainCases() {
		wantPtr, wantCols, wantWs := sortOracle(c.keys, c.fixed, c.numRows)
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			gotPtr, gotCols, gotWs := hashtable.GroupCSR(c.keys, c.fixed, c.numRows)
			if !slices.Equal(gotPtr, wantPtr) || !slices.Equal(gotCols, wantCols) || !slices.Equal(gotWs, wantWs) {
				t.Fatalf("procs=%d %s: grouping differs from the oracle", procs, c.name)
			}
		}
	}
	h := harnessPairs()
	keys := append(slices.Clone(h.keys), hashtable.Key(uint32(h.g.NumVertices()), 0))
	fixed := append(slices.Clone(h.fixed), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a row past numRows: no panic")
		}
	}()
	hashtable.GroupCSR(keys, fixed, h.g.NumVertices())
}

package hashtable_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lightne/internal/core"
	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/rng"
	"lightne/internal/sampler"
)

// drainCase is a table drained over numRows.
type drainCase struct {
	name    string
	table   *hashtable.Table
	numRows int
}

// harnessTables samples the two harness shapes once: RMAT-12 through the
// per-arc sampler at DefaultConfig(64) (embed-default) and RMAT-13 through
// the wave pipeline at M = 2·T·m (embed-stream), each drained as packed
// keys and fixed-point weights. Both passes group without a table, so
// their entries go into one: a one-shard table for RMAT-12 and a four-shard
// one, the embed-stream shape of a sharded table, for RMAT-13.
var harnessTables = sync.OnceValue(func() []harnessTable {
	var out []harnessTable
	for _, scale := range []int{12, 13} {
		g, err := gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 20, Seed: 7})
		if err != nil {
			panic(err)
		}
		var sink sampler.Sink
		if scale == 12 {
			sink, _, err = sampler.Sample(g, core.DefaultConfig(64).Sampler(g))
		} else {
			const t = 10
			cfg := sampler.Config{T: t, M: int64(t * g.NumEdges()), Downsample: true, Seed: 7}
			sink, _, err = sampler.SampleBatched(g, cfg, 0)
		}
		if err != nil {
			panic(err)
		}
		h := harnessTable{name: fmt.Sprintf("rmat%d", scale), g: g}
		h.rowPtr, h.cols, h.ws = sink.DrainCSR(g.NumVertices())
		for r := 0; r+1 < len(h.rowPtr); r++ {
			for p := h.rowPtr[r]; p < h.rowPtr[r+1]; p++ {
				h.keys = append(h.keys, hashtable.Key(uint32(r), h.cols[p]))
				h.fixed = append(h.fixed, hashtable.ToFixed(h.ws[p]))
			}
		}
		// Shuffled: pairs in one table's slot order would cluster another's.
		s := rng.New(uint64(scale), 0)
		for i := len(h.keys) - 1; i > 0; i-- {
			j := s.Intn(i + 1)
			h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
			h.fixed[i], h.fixed[j] = h.fixed[j], h.fixed[i]
		}
		h.table = shardTable(h.keys, h.fixed, uint(2*(scale-12)), len(h.keys))
		out = append(out, h)
	}
	return out
})

// harnessTable is one sampled harness shape: the sampler's drained arrays,
// its entries as shuffled pairs, and a table holding them.
type harnessTable struct {
	name        string
	g           *graph.Graph
	table       *hashtable.Table
	rowPtr      []int64
	cols        []uint32
	ws          []float64
	keys, fixed []uint64
}

// shardTable inserts pairs into a table of 1<<bits shards in one batch. A
// hint of 0 makes every shard grow mid-insert.
func shardTable(keys, fixed []uint64, bits uint, hint int) *hashtable.Table {
	tab := hashtable.New(hint, 1<<bits)
	tab.AddFixedBatch(keys, fixed)
	return tab
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

// drainCases builds the oracle sweep's tables: the harness shapes as sampled,
// re-sharded and grown; empty tables; synthetic tables around the bucket
// geometry's edges (one row, 255–257 rows, a non-power of two); a hub row.
func drainCases() []drainCase {
	var cases []drainCase
	for _, h := range harnessTables() {
		cases = append(cases, drainCase{h.name + "/sampled", h.table, h.g.NumVertices()})
		for _, bits := range []uint{0, 2, 4} {
			cases = append(cases, drainCase{fmt.Sprintf("%s/shards=%d", h.name, 1<<bits),
				shardTable(h.keys, h.fixed, bits, len(h.keys)), h.g.NumVertices()})
		}
		cases = append(cases, drainCase{h.name + "/grown", shardTable(h.keys, h.fixed, 0, 0), h.g.NumVertices()})
	}
	for _, numRows := range []int{0, 1, 5} {
		cases = append(cases, drainCase{fmt.Sprintf("empty/rows=%d", numRows), hashtable.New(0, 1), numRows})
	}
	for _, numRows := range []int{1, 255, 256, 257, 1000, 4099} {
		for i, n := range []int{1, 3000, 40000} {
			keys, fixed := syntheticPairs(uint64(numRows*n), n, numRows, 70000, numRows-1, 0)
			cases = append(cases, drainCase{fmt.Sprintf("rows=%d/pairs=%d/shards=%d", numRows, n, 1<<i),
				shardTable(keys, fixed, uint(i), 0), numRows})
		}
	}
	// One hub row holding more entries than an average bucket many times
	// over, and columns spanning all 32 bits.
	keys, fixed := syntheticPairs(9, 200000, 3000, 1<<31, 1234, 0.2)
	keys = append(keys, hashtable.Key(17, 0xffffffff), hashtable.Key(2999, 0))
	fixed = append(fixed, 5, 6)
	cases = append(cases, drainCase{"hub", shardTable(keys, fixed, 2, len(keys)), 3000})
	return cases
}

// TestDrainCSRBitIdenticalToRadixOracle: the bucketed drain returns exactly
// the arrays of the replaced one (drain to packed pairs, then sort them by
// key) for every worker count, shard count, row count and table history.
// See DESIGN.md "Numerics".
func TestDrainCSRBitIdenticalToRadixOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range drainCases() {
		wantPtr, wantCols, wantWs := hashtable.DrainCSROracle(c.table, c.numRows)
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			gotPtr, gotCols, gotWs := c.table.DrainCSR(c.numRows)
			if !slices.Equal(gotPtr, wantPtr) || !slices.Equal(gotCols, wantCols) || !slices.Equal(gotWs, wantWs) {
				t.Fatalf("procs=%d %s: drain differs from the oracle", procs, c.name)
			}
		}
	}
	for _, h := range harnessTables() {
		wp, wc, ww := hashtable.DrainCSROracle(shardTable(h.keys, h.fixed, 0, len(h.keys)), h.g.NumVertices())
		if !slices.Equal(h.rowPtr, wp) || !slices.Equal(h.cols, wc) || !slices.Equal(h.ws, ww) {
			t.Fatalf("%s: the sampler's sink drains differently from the oracle", h.name)
		}
	}
}

// TestDrainCSRPanicsOnRowOutOfRange: a source vertex >= numRows panics —
// past the last bucket, inside the last bucket's row range, and with no
// rows at all.
func TestDrainCSRPanicsOnRowOutOfRange(t *testing.T) {
	for _, c := range []struct {
		numRows int
		row     uint32
		pairs   int
	}{{0, 0, 1}, {5, 5, 1}, {257, 257, 40000}, {257, 300, 40000}, {1000, 1 << 30, 40000}, {4096, 0xfffffffe, 3}} {
		keys, fixed := syntheticPairs(3, c.pairs, max(c.numRows, 1), 1000, 0, 0)
		keys = append(keys, hashtable.Key(c.row, 7))
		fixed = append(fixed, 1)
		tab := shardTable(keys, fixed, 1, len(keys))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("numRows=%d row=%d: no panic", c.numRows, c.row)
				}
			}()
			tab.DrainCSR(c.numRows)
		}()
	}
}

// BenchmarkDrainCSR times the grouped drain at the harness's two table
// shapes — RMAT-12's per-arc-pass entries in one table (embed-default) and
// RMAT-13's batched-pass entries in four shards (the embed-stream shape) —
// beside the drain-to-pairs and standard-library sort it replaced (oracle/).
// Run at -cpu 1,2.
func BenchmarkDrainCSR(b *testing.B) {
	for _, h := range harnessTables() {
		n := h.g.NumVertices()
		for _, impl := range []struct {
			name  string
			drain func(*hashtable.Table, int) ([]int64, []uint32, []float64)
		}{{"bucketed", (*hashtable.Table).DrainCSR}, {"oracle", hashtable.DrainCSROracle}} {
			b.Run(fmt.Sprintf("%s/shards=%d/%s", h.name, h.table.Shards(), impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.drain(h.table, n)
				}
				b.ReportMetric(float64(len(h.keys)), "entries")
			})
		}
	}
}

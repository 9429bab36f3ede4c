package hashtable

import (
	"sync"
	"testing"

	"lightne/internal/rng"
)

func BenchmarkAddSingleWorker(b *testing.B) {
	t := New(1 << 20)
	s := rng.New(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(s.Intn(1 << 18))
		t.Add(k, k^0x5555, 1)
	}
}

func BenchmarkAddContended(b *testing.B) {
	// All workers hammer a small key set: stresses the atomic-add path.
	t := New(1 << 12)
	workers := 8
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			s := rng.New(9, uint64(id))
			for i := 0; i < per; i++ {
				k := uint32(s.Intn(64))
				t.Add(k, k, 1)
			}
		}(w)
	}
	wg.Wait()
}

// benchTable builds a table with the given number of distinct keys, shared
// across drain benchmarks so parallel and sequential variants see identical
// slot layouts.
func benchTable(b *testing.B, distinct int) *Table {
	b.Helper()
	t := New(distinct)
	for i := 0; i < distinct; i++ {
		t.Add(uint32(i), uint32(i*7), 1)
	}
	return t
}

// drainSequential is the pre-parallelization single-threaded append loop,
// kept as the benchmark baseline: compare BenchmarkDrain against
// BenchmarkDrainSequential with benchstat to measure the drain speedup.
func drainSequential(t *Table) (us, vs []uint32, ws []float64) {
	n := len(t.slots) / maxLoadDen * maxLoadNum // the most keys the table holds
	us = make([]uint32, 0, n)
	vs = make([]uint32, 0, n)
	ws = make([]float64, 0, n)
	for _, s := range t.slots {
		if s.key == 0 {
			continue
		}
		u, v := UnpackKey(^s.key)
		us = append(us, u)
		vs = append(vs, v)
		ws = append(ws, FromFixed(s.val))
	}
	return us, vs, ws
}

// BenchmarkDrain drains a table with 2^20 (≈1M) distinct keys through the
// parallel two-pass path.
func BenchmarkDrain(b *testing.B) {
	t := benchTable(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us, _, _ := t.Drain()
		if len(us) != 1<<20 {
			b.Fatal("bad drain")
		}
	}
}

// BenchmarkDrainSequential is the single-threaded baseline on the same table.
func BenchmarkDrainSequential(b *testing.B) {
	t := benchTable(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us, _, _ := drainSequential(t)
		if len(us) != 1<<20 {
			b.Fatal("bad drain")
		}
	}
}

// insertWorkload is the benchmark harness's embed-stream table shape: pairs
// inserts over distinct keys (every key once, the rest repeats drawn
// uniformly), shuffled, with RMAT-13 source vertices.
func insertWorkload(pairs, distinct int) (keys, fixed []uint64) {
	s := rng.New(2024, 0)
	keys = make([]uint64, pairs)
	fixed = make([]uint64, pairs)
	for i := range keys {
		k := i
		if i >= distinct {
			k = s.Intn(distinct)
		}
		keys[i], fixed[i] = Key(uint32(k%8192), uint32(k/8192)), fixedOne
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys, fixed
}

// BenchmarkGroupCSR times the aggregation at the harness's embed-stream
// shape (1.5 M pairs over ~1.06 M distinct keys, 8 192 rows): GroupCSR
// sorting the pairs straight into CSR arrays, beside the paper's table (a
// fresh presized Table taking the batch, drained, its distinct entries
// grouped into the same arrays). Allocation included; reports Mop/s of
// pairs.
func BenchmarkGroupCSR(b *testing.B) {
	const pairs, distinct, numRows = 1_500_000, 1_060_000, 8192
	keys, fixed := insertWorkload(pairs, distinct)
	for _, impl := range []struct {
		name  string
		group func()
	}{
		{"sort", func() { GroupCSR(keys, fixed, numRows) }},
		{"table", func() {
			t := New(distinct)
			t.AddFixedBatch(keys, fixed)
			us, vs, ws := t.Drain()
			dk, df := make([]uint64, len(us)), make([]uint64, len(us))
			for i := range us {
				dk[i], df[i] = Key(us[i], vs[i]), ToFixed(ws[i])
			}
			GroupCSR(dk, df, numRows)
		}},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.group()
			}
			b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
		})
	}
}

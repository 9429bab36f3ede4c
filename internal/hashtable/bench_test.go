package hashtable

import (
	"sync"
	"testing"

	"lightne/internal/par"
	"lightne/internal/rng"
)

func BenchmarkAddSingleWorker(b *testing.B) {
	t := New(1<<20, 1)
	s := rng.New(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(s.Intn(1 << 18))
		t.Add(k, k^0x5555, 1)
	}
}

func BenchmarkAddContended(b *testing.B) {
	// All workers hammer a small key set: stresses the atomic-add path.
	t := New(1<<12, 1)
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
	t := New(distinct, 1)
	for i := 0; i < distinct; i++ {
		t.Add(uint32(i), uint32(i*7), 1)
	}
	if t.Len() != distinct {
		b.Fatalf("built %d keys want %d", t.Len(), distinct)
	}
	return t
}

// drainSequential is the pre-parallelization single-threaded append loop,
// kept as the benchmark baseline: compare BenchmarkDrain against
// BenchmarkDrainSequential with benchstat to measure the drain speedup.
func drainSequential(t *Table) (us, vs []uint32, ws []float64) {
	n := t.Len()
	us = make([]uint32, 0, n)
	vs = make([]uint32, 0, n)
	ws = make([]float64, 0, n)
	for _, s := range t.shards[0].slots {
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

// BenchmarkInsert times one fresh presized table taking 1.5 M pairs over
// ~1.06 M distinct keys (the harness's embed-stream shape), allocation
// included: the single table's shared batch kernel, and the four-shard
// table's whole AddFixedBatch (chunks grouped by shard), each beside the
// per-key kernel it replaced (perKeyTable; the four shards each filled by
// its own worker from runs grouped by shard, in input order, the grouping
// not timed). Reports Mop/s.
func BenchmarkInsert(b *testing.B) {
	const pairs, distinct, shardBits = 1_500_000, 1_060_000, 2
	const shards = 1 << shardBits
	keys, fixed := insertWorkload(pairs, distinct)
	var shardKeys, shardFixed [shards][]uint64
	for i, k := range keys {
		sh := shardOf(k, shardBits)
		shardKeys[sh] = append(shardKeys[sh], k)
		shardFixed[sh] = append(shardFixed[sh], fixed[i])
	}
	run := func(name string, insert func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insert()
			}
			b.ReportMetric(float64(pairs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mop/s")
		})
	}
	run("table", func() { New(pairs, 1).AddFixedBatch(keys, fixed) })
	run("table-per-key-oracle", func() { newPerKeyTable(pairs).AddFixedBatch(keys, fixed) })
	run("shards-4", func() { New(pairs, shards).AddFixedBatch(keys, fixed) })
	run("shards-4-per-key-oracle", func() {
		par.For(shards, 1, func(sh int) {
			t := newPerKeyTable(pairs / shards)
			for i, k := range shardKeys[sh] {
				t.AddFixed(k, shardFixed[sh][i])
			}
		})
	})
}

// BenchmarkGroupCSR times the batched pass's aggregation at the harness's
// embed-stream shape (1.5 M pairs over ~1.06 M distinct keys, 8 192 rows):
// GroupCSR sorting the pairs straight into CSR arrays, beside the path it
// replaced, a fresh presized four-shard table taking the batch and then
// DrainCSR. Allocation included; reports Mop/s of pairs.
func BenchmarkGroupCSR(b *testing.B) {
	const pairs, distinct, numRows = 1_500_000, 1_060_000, 8192
	keys, fixed := insertWorkload(pairs, distinct)
	for _, impl := range []struct {
		name  string
		group func()
	}{
		{"sort", func() { GroupCSR(keys, fixed, numRows) }},
		{"table-shards-4", func() {
			t := New(pairs, 4)
			t.AddFixedBatch(keys, fixed)
			t.DrainCSR(numRows)
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

package experiments

import (
	"sync"

	"lightne/internal/hashtable"
)

// E12's aggregation strategies: the ways to aggregate samples the paper
// considered (§4.2, "We considered several different techniques for this
// aggregation problem in the shared-memory setting") beside the one it
// kept, the shared hash table. The two baselines exist only for this table.

// aggregator is one E12 strategy: concurrent Add calls from dense worker ids
// in [0, workers), then one Drain of the per-edge totals (unordered).
type aggregator interface {
	Add(worker int, u, v uint32, w float64)
	Drain() (us, vs []uint32, ws []float64)
	MemoryBytes() int64
}

// sharedTable is the selected design: every worker adds into one
// hashtable.Table with CAS + xadd; the worker id is unused.
type sharedTable struct{ *hashtable.Table }

func (s sharedTable) Add(_ int, u, v uint32, w float64) { s.Table.Add(u, v, w) }

// record is one buffered sample of listHistogram: a packed key and a
// fixed-point weight.
type record struct {
	key, fixed uint64
}

// listHistogram buffers every sample in per-worker lists and aggregates at
// drain time by sorting and run-length summing (the GBBS sparse-histogram
// approach). Memory grows with the number of samples, not distinct edges —
// the property that limited NetSMF's affordable sample count (§5.2.4).
type listHistogram struct {
	lists [][]record
}

func newListHistogram(workers int) *listHistogram {
	return &listHistogram{lists: make([][]record, workers)}
}

// Add appends to the worker's private list: no synchronization at all.
func (l *listHistogram) Add(worker int, u, v uint32, w float64) {
	l.lists[worker] = append(l.lists[worker], record{hashtable.Key(u, v), hashtable.ToFixed(w)})
}

// Drain concatenates all lists and aggregates them with hashtable.GroupCSR,
// the bucketed sort the batched sampler groups its samples with (the
// semisort/partial-radix-sort step the paper cites, §4.2).
func (l *listHistogram) Drain() (us, vs []uint32, ws []float64) {
	var total int
	for _, lst := range l.lists {
		total += len(lst)
	}
	keys, fixed, numRows := make([]uint64, 0, total), make([]uint64, 0, total), 0
	for _, lst := range l.lists {
		for _, r := range lst {
			keys, fixed = append(keys, r.key), append(fixed, r.fixed)
			numRows = max(numRows, int(r.key>>32)+1)
		}
	}
	rowPtr, vs, ws := hashtable.GroupCSR(keys, fixed, numRows)
	us = make([]uint32, len(vs))
	for u := 0; u < numRows; u++ {
		for p := rowPtr[u]; p < rowPtr[u+1]; p++ {
			us[p] = uint32(u)
		}
	}
	return us, vs, ws
}

// MemoryBytes counts the buffered records (16 bytes each).
func (l *listHistogram) MemoryBytes() int64 {
	var n int64
	for _, lst := range l.lists {
		n += int64(cap(lst)) * 16
	}
	return n
}

// perWorkerTables keeps one private map per worker and merges at drain
// time — NetSMF's strategy ("maintains a thread-local sparsifier in each
// thread and merges them at the end", §5.2.4). Distinct edges sampled by
// k workers are stored k times, the duplication the shared table avoids.
type perWorkerTables struct {
	tables []map[uint64]float64
}

func newPerWorkerTables(workers int) *perWorkerTables {
	t := &perWorkerTables{tables: make([]map[uint64]float64, workers)}
	for i := range t.tables {
		t.tables[i] = make(map[uint64]float64)
	}
	return t
}

// Add updates the worker's private map: no synchronization.
func (t *perWorkerTables) Add(worker int, u, v uint32, w float64) {
	t.tables[worker][hashtable.Key(u, v)] += w
}

// Drain merges all maps.
func (t *perWorkerTables) Drain() (us, vs []uint32, ws []float64) {
	merged := make(map[uint64]float64)
	for _, m := range t.tables {
		for k, w := range m {
			merged[k] += w
		}
	}
	for k, w := range merged {
		u, v := hashtable.UnpackKey(k)
		us, vs, ws = append(us, u), append(vs, v), append(ws, w)
	}
	return us, vs, ws
}

// MemoryBytes estimates map storage: ~48 bytes per entry per worker copy
// (Go map overhead on a 16-byte payload).
func (t *perWorkerTables) MemoryBytes() int64 {
	var n int64
	for _, m := range t.tables {
		n += int64(len(m)) * 48
	}
	return n
}

// runWorkload drives an aggregator with a deterministic synthetic sample
// stream (workers × perWorker unit-weight samples over a keyspace with the
// given number of distinct edges) and returns the total drained weight.
func runWorkload(agg aggregator, workers, perWorker, distinct int, seed uint64) float64 {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			s := newStream(seed, uint64(id))
			for i := 0; i < perWorker; i++ {
				k := s.next(distinct)
				agg.Add(id, uint32(k), uint32(k>>4), 1)
			}
		}(w)
	}
	wg.Wait()
	_, _, ws := agg.Drain()
	var total float64
	for _, w := range ws {
		total += w
	}
	return total
}

// stream is a tiny deterministic xorshift generator for runWorkload.
type stream struct{ state uint64 }

func newStream(seed, id uint64) *stream {
	return &stream{state: seed*0x9e3779b97f4a7c15 + id + 1}
}

func (s *stream) next(n int) int {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return int(s.state % uint64(n))
}

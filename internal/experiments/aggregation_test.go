package experiments

import (
	"math"
	"testing"

	"lightne/internal/hashtable"
)

// drainMap converts a Drain result into a key→weight map for comparison.
func drainMap(us, vs []uint32, ws []float64) map[uint64]float64 {
	m := make(map[uint64]float64, len(us))
	for i := range us {
		m[hashtable.Key(us[i], vs[i])] += ws[i]
	}
	return m
}

// TestAllStrategiesAgree: E12's three strategies drain the same aggregate
// from the same sample stream, every sample accounted for.
func TestAllStrategiesAgree(t *testing.T) {
	const workers, perWorker, distinct = 4, 20000, 700
	aggs := map[string]aggregator{
		"list-histogram":    newListHistogram(workers),
		"per-worker-tables": newPerWorkerTables(workers),
		"shared-table":      sharedTable{hashtable.New(distinct * 2)},
	}
	results := map[string]map[uint64]float64{}
	for name, agg := range aggs {
		total := runWorkload(agg, workers, perWorker, distinct, 7)
		if math.Abs(total-workers*perWorker) > 1e-3 {
			t.Fatalf("%s: total weight %.3f want %d", name, total, workers*perWorker)
		}
		results[name] = drainMap(agg.Drain())
	}
	ref := results["list-histogram"]
	for name, got := range results {
		if len(got) != len(ref) {
			t.Fatalf("%s: %d distinct edges, reference %d", name, len(got), len(ref))
		}
		for k, w := range ref {
			if math.Abs(got[k]-w) > 1e-3 {
				t.Fatalf("%s: key %d weight %g want %g", name, k, got[k], w)
			}
		}
	}
}

func TestListHistogramSortsRuns(t *testing.T) {
	l := newListHistogram(2)
	l.Add(0, 3, 1, 1)
	l.Add(1, 1, 1, 2)
	l.Add(0, 3, 1, 0.5)
	us, vs, ws := l.Drain()
	if len(us) != 2 {
		t.Fatalf("distinct=%d want 2", len(us))
	}
	m := drainMap(us, vs, ws)
	if math.Abs(m[hashtable.Key(3, 1)]-1.5) > 1e-12 {
		t.Fatalf("merged weight wrong: %v", m)
	}
}

func TestMemoryOrdering(t *testing.T) {
	// The paper's §5.2.4 point: list memory scales with samples, shared
	// table with distinct edges. With many samples over few edges the list
	// strategy must report much higher memory.
	const workers, perWorker, distinct = 4, 50000, 200
	list := newListHistogram(workers)
	shared := sharedTable{hashtable.New(distinct * 2)}
	runWorkload(list, workers, perWorker, distinct, 3)
	runWorkload(shared, workers, perWorker, distinct, 3)
	if list.MemoryBytes() < 10*shared.MemoryBytes() {
		t.Fatalf("list memory %d not ≫ shared %d", list.MemoryBytes(), shared.MemoryBytes())
	}
	// Per-worker tables duplicate hot edges across workers.
	pw := newPerWorkerTables(workers)
	runWorkload(pw, workers, perWorker, distinct, 3)
	us, _, _ := pw.Drain()
	if len(us) != distinct {
		t.Fatalf("per-worker drain found %d distinct, want %d", len(us), distinct)
	}
}

func TestStreamDeterministic(t *testing.T) {
	a := newStream(5, 1)
	b := newStream(5, 1)
	for i := 0; i < 100; i++ {
		if a.next(1000) != b.next(1000) {
			t.Fatal("stream not deterministic")
		}
	}
}

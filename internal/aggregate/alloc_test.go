//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.

package aggregate

import (
	"testing"

	"lightne/internal/hashtable"
)

// TestSmallShardedBatchDoesNotAllocate: a per-arc sampler's flush into a
// sharded sink is grouped in pooled scratch, so once the keys are present
// it allocates nothing.
func TestSmallShardedBatchDoesNotAllocate(t *testing.T) {
	st := NewShardedTable(1<<14, 4)
	keys := make([]uint64, hashtable.BatchGrain)
	fixed := make([]uint64, len(keys))
	for i := range keys {
		keys[i], fixed[i] = hashtable.Key(uint32(i), uint32(i>>2)), 1
	}
	st.AddFixedBatch(keys, fixed)
	if a := testing.AllocsPerRun(100, func() { st.AddFixedBatch(keys, fixed) }); a != 0 {
		t.Fatalf("%v allocations per small batch, want 0", a)
	}
}

//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.

package hashtable

import "testing"

// TestSmallShardedBatchDoesNotAllocate: the incremental sampler's flush into a
// sharded table is grouped in pooled scratch, so once the keys are present
// it allocates nothing.
func TestSmallShardedBatchDoesNotAllocate(t *testing.T) {
	tab := New(1<<14, 4)
	keys := make([]uint64, BatchGrain)
	fixed := make([]uint64, len(keys))
	for i := range keys {
		keys[i], fixed[i] = Key(uint32(i), uint32(i>>2)), 1
	}
	tab.AddFixedBatch(keys, fixed)
	if a := testing.AllocsPerRun(100, func() { tab.AddFixedBatch(keys, fixed) }); a != 0 {
		t.Fatalf("%v allocations per small batch, want 0", a)
	}
}

package sampler

import (
	"fmt"
	"slices"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// SampleBatchedSerial is the pre-pipeline batched sampler, kept as the
// differential oracle and benchmark baseline for SampleBatched: wave
// *advances* are parallel (the original radix-batching win), but head
// enumeration is a single-threaded vertex loop, every wave flushes into the
// sink through a sequential loop of one-head (two-pair) inserts before the
// next wave may start, and tombstone compaction is a serial sweep. It lives
// in a _test.go file so the shipped package carries exactly one batched
// sampler; tests and in-package benchmarks still exercise it as the
// reference implementation.
//
// It draws the identical trial distribution and per-head weights as
// SampleBatched (the per-vertex enumeration streams are the same), so Trials
// and Heads match exactly; walk steps use chunk-seeded RNG streams, so the
// aggregates agree distributionally but not bitwise.
func SampleBatchedSerial(g *graph.Graph, cfg Config, waveSize int) (*hashtable.Table, Stats, error) {
	if cfg.T <= 0 || cfg.T > 512 {
		return nil, Stats{}, fmt.Errorf("sampler: batched walking requires 1 <= T <= 512, got %d", cfg.T)
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if g.NumEdges() == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	if g.Weighted() {
		return nil, Stats{}, fmt.Errorf("sampler: batched walking requires an unweighted graph")
	}
	if waveSize <= 0 || waveSize > MaxWaveHeads {
		waveSize = MaxWaveHeads
	}
	c := cfg.DownsampleC(g.NumVertices())

	table := NewSink(int(2*cfg.M)+1024, cfg.Shards)
	var pairKeys, pairFixed [2]uint64

	// Enumerate heads arc by arc (same trial distribution as Sample),
	// flushing a wave whenever it fills.
	perArc := float64(cfg.M) / float64(g.NumEdges())
	base := int64(perArc)
	frac := perArc - float64(base)

	heads := make([]serialWaveHead, 0, waveSize)
	states := make([]uint64, 0, 2*waveSize)
	var stats Stats
	wave := 0

	flush := func() {
		if len(heads) == 0 {
			return
		}
		runWaveSerial(g, heads, states, cfg.Seed, uint64(wave))
		for _, h := range heads {
			pairKeys = [2]uint64{hashtable.Key(h.e0, h.e1), hashtable.Key(h.e1, h.e0)}
			pairFixed = [2]uint64{h.fixed, h.fixed}
			table.AddFixedBatch(pairKeys[:], pairFixed[:])
		}
		wave++
		heads = heads[:0]
		states = states[:0]
	}

	n := g.NumVertices()
	var src rng.Source
	for ui := 0; ui < n; ui++ {
		u := uint32(ui)
		du := g.Degree(u)
		if du == 0 {
			continue
		}
		src.Seed(cfg.Seed, uint64(u))
		for i := 0; i < du; i++ {
			v := g.Neighbor(u, i)
			ne := base
			if frac > 0 && src.Bernoulli(frac) {
				ne++
			}
			if ne == 0 {
				continue
			}
			pe := 1.0
			if cfg.Downsample {
				pe = Prob(c, du, g.Degree(v))
			}
			fixed := hashtable.ToFixed(1 / pe)
			for k := int64(0); k < ne; k++ {
				stats.Trials++
				if pe < 1 && !src.Bernoulli(pe) {
					continue
				}
				stats.Heads++
				r := 1 + src.Intn(cfg.T)
				s := src.Intn(r)
				head := len(heads)
				heads = append(heads, serialWaveHead{fixed: fixed})
				states = append(states,
					packState(u, s, 0, head),
					packState(v, r-1-s, 1, head))
				if len(heads) == waveSize {
					flush()
				}
			}
		}
	}
	flush()

	stats.DistinctEntries = table.Len()
	stats.TableBytes = table.MemoryBytes()
	stats.PeakTableBytes = table.PeakMemoryBytes()
	return table, stats, nil
}

// serialWaveHead is the per-head metadata of the serial-flush reference.
type serialWaveHead struct {
	fixed uint64 // importance weight, fixed point
	e0    uint32 // endpoints (filled as walks finish)
	e1    uint32
}

// runWaveSerial advances all states to completion, sort-grouping by current
// vertex between steps, and records endpoints into heads. Walk-step RNG
// streams are seeded per chunk, so output depends on the chunk geometry
// (hence on GOMAXPROCS) — the determinism gap the pipelined runWave closes.
func runWaveSerial(g *graph.Graph, heads []serialWaveHead, states []uint64, seed, wave uint64) {
	round := 0
	for len(states) > 0 {
		slices.Sort(states) // group by current vertex (top bits)
		// Advance every state one step in parallel; finished states record
		// their endpoint and are dropped by the compaction below.
		par.ForRange(len(states), 1024, func(lo, hi int) {
			var src rng.Source
			src.Seed(seed^walkSeedTag, (wave<<20)^uint64(round)<<40^uint64(lo))
			for i := lo; i < hi; i++ {
				st := states[i]
				cur := uint32(st >> batchCurOff)
				steps := int(st>>batchStepOff) & (1<<batchStepBits - 1)
				head := int(st & (MaxWaveHeads - 1))
				side := int(st>>batchSideBit) & 1
				if steps == 0 {
					if side == 0 {
						heads[head].e0 = cur
					} else {
						heads[head].e1 = cur
					}
					states[i] = stateTombstone
					continue
				}
				next, ok := g.RandomNeighbor(cur, &src)
				if !ok {
					next = cur // isolated: stay (cannot happen on symmetric graphs)
				}
				states[i] = packState(next, steps-1, side, head)
			}
		})
		// Compact out tombstones.
		out := 0
		for _, st := range states {
			if st != stateTombstone {
				states[out] = st
				out++
			}
		}
		states = states[:out]
		round++
	}
}

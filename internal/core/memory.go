package core

import (
	"fmt"
	"math"

	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/prone"
	"lightne/internal/sampler"
	"lightne/internal/svd"
)

// MemoryEstimate predicts the peak memory of an Embed run — the planning
// arithmetic behind the paper's evaluation, where sample counts are pushed
// "until it reaches the 1.5TB memory bottleneck" (§5.3) and the affordable
// M under a budget decides embedding quality (Figure 3, §5.2.4).
type MemoryEstimate struct {
	// Trials is the configured sample count M.
	Trials int64
	// ExpectedHeads is E[# samples surviving the downsampling coin].
	ExpectedHeads int64
	// TableBytes is the hash table Sample presizes: power-of-two slots of
	// 16 bytes at 7/8 load for two oriented keys per expected head, with
	// the enumerator's slack (sampler.TableHint, hashtable.SlotBytes).
	TableBytes int64
	// PeakTableBytes is the table's high-water mark including the grow
	// transient: while a badly-hinted table rehashes to its final capacity,
	// the old half-size slot arrays coexist with the new ones, so the true
	// peak is 1.5x the post-grow footprint (sampler.Stats.PeakTableBytes
	// reports the realized counterpart). Total budgets this, not
	// TableBytes, so the plan stays honest when the size hint is wrong.
	PeakTableBytes int64
	// WalkBufferBytes is the batched walker's pipeline scratch (head
	// records with their enumeration slack, plus the wave's stepping-side
	// state buffers and drain buffers); zero unless BatchedWalks.
	WalkBufferBytes int64
	// DecodeBufferBytes is the transient for walking a compressed graph
	// natively: one NeighborCursor decode buffer per worker, each at most
	// (max degree + block size) uint32s (a full-adjacency decode of the
	// highest-degree vertex, rounded up to a whole block). Zero unless
	// BatchedWalks on a compressed graph — the raw-CSR walker reads
	// adjacency in place.
	DecodeBufferBytes int64
	// SparsifierBytes is the CSR holding the drained, trunc-logged matrix.
	// Zero in sketch mode (StreamedSVD): the scaled matrix is never
	// materialized — see StreamBytes.
	SparsifierBytes int64
	// StreamBytes is the drained raw CSR resident while the streamed
	// factorization consumes it chunk by chunk (StreamedSVD only): the same
	// 12 bytes per entry plus row pointers the sparsifier would occupy, but
	// no scaled copy ever coexists with it. Zero in rSVD mode.
	StreamBytes int64
	// DenseBytes covers the factorization's dense working set (the
	// randomized-SVD iterates, or in sketch mode the two sketch accumulators
	// plus test matrices) and the propagation workspace
	// (prone.WorkspaceBytes: the self-loop-augmented adjacency, the operator's
	// values and the n×d buffers).
	DenseBytes int64
	// GraphBytes is the adjacency storage (offsets, edges, and weights for
	// weighted graphs), excluding the alias tables accounted separately.
	GraphBytes int64
	// AliasTableBytes is the per-vertex Vose alias-table storage weighted
	// batched walking draws from: 12 B per stored arc (8 B acceptance
	// probability + 4 B alias slot). Zero for unweighted graphs.
	AliasTableBytes int64
}

// Total sums all components. Table and sparsifier coexist briefly during
// the drain, so the sum is the honest peak; the table contributes its
// grow-transient high-water mark (PeakTableBytes), not the steady state,
// so a run whose size hint was wrong still fits the reported budget.
func (m MemoryEstimate) Total() int64 {
	return m.PeakTableBytes + m.WalkBufferBytes + m.DecodeBufferBytes +
		m.SparsifierBytes + m.StreamBytes + m.DenseBytes + m.GraphBytes + m.AliasTableBytes
}

// EstimateMemory predicts an Embed run's peak memory without running it.
// Estimates are upper-bound-flavored (they treat every head as a distinct
// sparsifier entry); realized usage is typically 2-4x lower on graphs with
// heavy sample collision.
func EstimateMemory(g *graph.Graph, cfg Config) (MemoryEstimate, error) {
	if cfg.Dim <= 0 || cfg.T <= 0 {
		return MemoryEstimate{}, fmt.Errorf("lightne: dimension and T must be positive")
	}
	scfg := cfg.Sampler(g)
	if err := scfg.Check(); err != nil {
		return MemoryEstimate{}, fmt.Errorf("lightne: %w", err)
	}
	e := sampler.ExpectedHeads(g, scfg)
	heads := int64(e)
	// Two oriented keys per head; the table is the one Sample presizes.
	entries := 2 * heads
	tableBytes := hashtable.SlotBytes(sampler.TableHint(e), scfg.Shards)
	est := MemoryEstimate{
		Trials:          scfg.M,
		ExpectedHeads:   heads,
		TableBytes:      tableBytes,
		PeakTableBytes:  tableBytes * 3 / 2,
		SparsifierBytes: entries*12 + int64(g.NumVertices()+1)*8,
		AliasTableBytes: g.AliasBytes(),
	}
	// SizeBytes already includes the alias tables for weighted graphs; split
	// them into their own line item so the plan shows what weighted batched
	// walking costs.
	est.GraphBytes = g.SizeBytes() - est.AliasTableBytes
	if cfg.BatchedWalks {
		// Stage-1 head records (24 B each), written in one pass into
		// per-block regions of E_b + 6·(√E_b + 4) records for E_b expected
		// heads (sampler.enumSlack); over at most 4 blocks per worker the
		// slack sums to at most 6·(√(heads·blocks) + 4·blocks). Then the
		// per-wave buffers, where w heads are in flight: walk states +
		// compaction scratch (2 x 8 B per stepping side: a side steps unless
		// its split leaves it none, which happens with probability
		// E[1/r] = H_T/T, so 2·(1 − H_T/T) sides per head, at most 2w), and
		// the drain's oriented key/weight pairs (2 x 2w x 8 B); a sharded
		// sink's partition scratch adds one more pair of 2w arrays.
		wave := int64(cfg.WaveSize)
		if wave <= 0 || wave > sampler.MaxWaveHeads {
			wave = sampler.MaxWaveHeads
		}
		wave = min(wave, heads)
		blocks := float64(4 * par.Workers())
		slack := int64(6 * (math.Sqrt(float64(heads)*blocks) + 4*blocks))
		var harmonic float64
		for r := 1; r <= cfg.T; r++ {
			harmonic += 1 / float64(r)
		}
		stepping := min(int64(2*float64(heads)*(1-harmonic/float64(cfg.T))), 2*wave)
		est.WalkBufferBytes = 24*(heads+slack) + 16*stepping + 32*wave
		if cfg.Shards > 1 {
			est.WalkBufferBytes += 32 * wave
		}
		if g.Compressed() {
			// Walking compressed never materializes the edge array; the only
			// new transient is one cursor decode buffer per worker, sized for
			// a full decode of the hub vertex (plus one block of slack for
			// the lazy path's cache).
			maxDeg := 0
			for u := 0; u < g.NumVertices(); u++ {
				if d := g.Degree(uint32(u)); d > maxDeg {
					maxDeg = d
				}
			}
			est.DecodeBufferBytes = int64(par.Workers()) * int64(maxDeg+g.BlockSize()) * 4
		}
	}
	n := int64(g.NumVertices())
	if cfg.StreamedSVD {
		// Sketch mode never materializes the scaled sparsifier: the drained
		// raw CSR (StreamBytes, same arrays the sparsifier would occupy)
		// streams through one bounded transform buffer into the
		// accumulators, so SparsifierBytes moves to StreamBytes and the dense
		// side is the range sketch Y (n×k), the co-range sketch Z (n×l) and
		// the test matrices: 8·s bytes per row for sparse-sign Ω and Ψ (one
		// folded column-and-sign uint32 per ±1 entry of each), two more
		// dense matrices for Gaussian. Smaller than the rSVD's five n×k
		// whenever d ≥ 16 with the sign default (the planner's strict-lower
		// guarantee); Gaussian is the accuracy cross-check and prices higher.
		est.StreamBytes = est.SparsifierBytes
		est.SparsifierBytes = 0
		k, l := svd.SketchWidths(g.NumVertices(), cfg.Dim, cfg.Oversample)
		est.DenseBytes = n * int64(k+l) * 8
		if cfg.Sketch == svd.SketchGaussian {
			est.DenseBytes *= 2
		} else {
			est.DenseBytes += n * int64(svd.DefaultSignNNZ) * 8
		}
	} else {
		// Randomized SVD keeps ~5 dense n×k float64 matrices (O, Y, B, Z and
		// a temporary).
		k := cfg.Dim + cfg.Oversample
		est.DenseBytes = n * int64(k) * 8 * 5
	}
	// Propagation, in either mode: Ã and the operator's values over its
	// pattern plus the n×d buffers, priced by the function Propagate sizes
	// them from.
	if !cfg.SkipPropagation {
		est.DenseBytes += prone.WorkspaceBytes(g.NumVertices(), g.NumEdges(), cfg.Dim)
	}
	return est, nil
}

// MaxAffordableSamples inverts EstimateMemory: the largest M whose
// predicted Total fits the byte budget — the quantity the paper's §5.2.4
// ablation reports (8Tm for NetSMF, 12.5Tm without downsampling, 20Tm with
// it, under 1.5TB). Returns an error if even M = 1 does not fit.
func MaxAffordableSamples(g *graph.Graph, cfg Config, budgetBytes int64) (int64, error) {
	if budgetBytes <= 0 {
		return 0, fmt.Errorf("lightne: budget must be positive")
	}
	fits := func(m int64) bool {
		c := cfg
		c.M = m
		est, err := EstimateMemory(g, c)
		if err != nil {
			return false
		}
		return est.Total() <= budgetBytes
	}
	if !fits(1) {
		return 0, fmt.Errorf("lightne: fixed costs alone exceed the %d-byte budget", budgetBytes)
	}
	// Exponential search then binary search on M.
	lo, hi := int64(1), int64(2)
	for fits(hi) && hi < 1<<50 {
		lo, hi = hi, hi*2
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

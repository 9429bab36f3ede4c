package core

import (
	"fmt"
	"math"
	"math/bits"

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
	// TableBytes is what a sampling pass aggregates its samples in, with no
	// hash table, in either mode: one 16 B (key, fixed) pair per expected
	// head (the head's one orientation), hashtable.GroupCSR's bucket scatter
	// of those pairs plus its per-worker sort scratch, and the
	// upper-triangle CSR they group into, which the sparsifier build scales
	// and mirrors into SparsifierBytes. No raw full CSR is written.
	TableBytes int64
	// PeakTableBytes is the high-water mark of TableBytes' arrays, which
	// Total budgets (sampler.Stats.PeakTableBytes reports the realized
	// counterpart). Every array is sized from the pairs it holds, so
	// nothing grows, and it equals TableBytes.
	PeakTableBytes int64
	// WalkBufferBytes is the batched pass's own buffers (head records with
	// their enumeration slack, the wave's stepping-side state buffers and
	// digit counts); zero unless BatchedWalks.
	WalkBufferBytes int64
	// DecodeBufferBytes is the transient for walking a compressed graph
	// natively: one NeighborCursor decode buffer per worker, each at most
	// (max degree + block size) uint32s (a full-adjacency decode of the
	// highest-degree vertex, rounded up to a whole block). Zero unless
	// BatchedWalks on a compressed graph — the raw-CSR walker reads
	// adjacency in place.
	DecodeBufferBytes int64
	// SparsifierBytes is the full CSR of the trunc-logged matrix, which
	// both factorizers read: 12 bytes per entry plus row pointers.
	SparsifierBytes int64
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

// Total sums all components. The upper triangle and the sparsifier
// coexist while the mirror writes it, so the sum is the honest peak.
func (m MemoryEstimate) Total() int64 {
	return m.PeakTableBytes + m.WalkBufferBytes + m.DecodeBufferBytes +
		m.SparsifierBytes + m.DenseBytes + m.GraphBytes + m.AliasTableBytes
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
	heads, n := int64(e), int64(g.NumVertices())
	// One pair per head, which its two orientations make at most two
	// sparsifier entries. The scatter's sort scratch: each worker's holds
	// its largest bucket, priced at an eighth of the pairs (power-law rows
	// make buckets uneven: the RMAT-13 hub's holds 7 %).
	entries := 2 * heads
	scatter := hashtable.GroupScatterBytes(int(heads), int(n))
	tableBytes := 16*heads + scatter + int64(par.Workers())*scatter/8 + heads*12 + (n+1)*8
	est := MemoryEstimate{
		Trials:          scfg.M,
		ExpectedHeads:   heads,
		TableBytes:      tableBytes,
		PeakTableBytes:  tableBytes,
		SparsifierBytes: entries*12 + (n+1)*8,
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
		// slack sums to at most 6·(√(heads·blocks) + 4·blocks). While a wave
		// of w heads walks: the regroup's two walk-state buffers, scattered
		// from one into the other each round (2 x 8 B per stepping side: a
		// side steps unless its split leaves it none, which happens with
		// probability E[1/r] = H_T/T, so 2·(1 − H_T/T) sides per head, at
		// most 2w), and its per-block digit counts (8 B per digit, at most
		// 2^14 digits — the top bits of a vertex id, no more than 2w — per
		// block).
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
		digitBits := min(bits.Len32(uint32(g.NumVertices()-1)), 14, bits.Len64(uint64(2*wave)))
		est.WalkBufferBytes = 24*(heads+slack) + 16*stepping + int64(blocks)*8<<digitBits
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
	if cfg.StreamedSVD {
		// Sketch mode absorbs the same sparsifier; its dense side is the
		// range sketch Y (n×k), the co-range sketch Z (n×l) and the test
		// matrices: 8·s bytes per row for sparse-sign Ω and Ψ (one folded
		// column-and-sign uint32 per ±1 entry of each), two more dense
		// matrices for Gaussian. Smaller than the rSVD's five n×k whenever
		// d ≥ 16 with the sign default (the planner's strict-lower
		// guarantee); Gaussian is the accuracy cross-check and prices higher.
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

package gen

import (
	"fmt"
	"math"

	"lightne/internal/graph"
	"lightne/internal/rng"
)

// CommunityPowerLawConfig parameterizes a block model with Zipf-distributed
// community sizes — the structure of real social and web graphs
// (LiveJournal, Hyperlink-PLD): strong local clustering plus a heavy-tailed
// degree distribution induced by heavy-tailed community sizes.
type CommunityPowerLawConfig struct {
	N           int
	Communities int
	// AvgDegree is the target mean degree; ~80% of it comes from
	// within-community edges and the rest from a uniform background.
	AvgDegree float64
	// ZipfExponent shapes community sizes (share_k ∝ (k+2)^-exp, default 1).
	ZipfExponent float64
	Seed         uint64
}

// CommunityPowerLaw samples the model and returns the graph plus the
// community assignment as single-label Labels (useful as weak ground truth).
func CommunityPowerLaw(cfg CommunityPowerLawConfig) (*graph.Graph, *Labels, error) {
	if cfg.N <= 0 || cfg.Communities <= 0 || cfg.AvgDegree <= 0 {
		return nil, nil, fmt.Errorf("gen: CommunityPowerLaw needs positive N, Communities, AvgDegree")
	}
	exp := cfg.ZipfExponent
	if exp == 0 {
		exp = 1
	}
	// Zipf shares.
	shares := make([]float64, cfg.Communities)
	var total float64
	for k := range shares {
		shares[k] = math.Pow(float64(k+2), -exp)
		total += shares[k]
	}
	src := rng.New(cfg.Seed, 7)
	labels := &Labels{NumClasses: cfg.Communities, Of: make([][]int, cfg.N)}
	members := make([][]uint32, cfg.Communities)
	// Assign vertices by cumulative share (deterministic counts, then
	// shuffle assignment so IDs are not block-contiguous).
	perm := make([]int, cfg.N)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	pos := 0
	for k := 0; k < cfg.Communities; k++ {
		cnt := int(math.Round(shares[k] / total * float64(cfg.N)))
		if k == cfg.Communities-1 {
			cnt = cfg.N - pos
		}
		if cnt <= 0 {
			continue
		}
		if pos+cnt > cfg.N {
			cnt = cfg.N - pos
		}
		for i := 0; i < cnt; i++ {
			v := perm[pos+i]
			labels.Of[v] = []int{k}
			members[k] = append(members[k], uint32(v))
		}
		pos += cnt
	}

	var arcs []graph.Edge
	// Within-community edges: density chosen so that expected within-degree
	// ≈ 0.8·AvgDegree, capped at 0.5 for tiny communities.
	for _, mem := range members {
		kk := len(mem)
		if kk < 2 {
			continue
		}
		pIn := 0.8 * cfg.AvgDegree / float64(kk-1)
		if pIn > 0.5 {
			pIn = 0.5
		}
		totalPairs := int64(kk) * int64(kk-1) / 2
		for idx := skipNext(src, pIn, -1); idx < totalPairs; idx = skipNext(src, pIn, idx) {
			i, j := pairFromIndex(idx)
			arcs = append(arcs, graph.Edge{U: mem[j], V: mem[i]})
		}
	}
	// Background edges: the remaining 20% of degree mass.
	mBg := int64(0.2 * cfg.AvgDegree * float64(cfg.N) / 2)
	for e := int64(0); e < mBg; e++ {
		u := uint32(src.Intn(cfg.N))
		v := uint32(src.Intn(cfg.N))
		if u != v {
			arcs = append(arcs, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(cfg.N, arcs)
	if err != nil {
		return nil, nil, err
	}
	return g, labels, nil
}

package sampler

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// The two stages SampleBatched replaced, kept as oracles: the two-pass
// enumerator (a counting pass that runs every draw and discards it, then a
// fill pass that re-runs the identical draws) and the tombstone-round walker
// (every side, including the ones with no steps, enters the state array and
// is retired one round after its last step; each round sorts the states and
// compacts them after the visit). The one-pass enumerator and the regrouping
// walker must reproduce them record for record — the determinism contract of
// DESIGN.md "Numerics".

// enumerateHeadsTwoPass is the count/scan/fill enumerator.
func enumerateHeadsTwoPass(g *graph.Graph, cfg Config) ([]headRec, Stats) {
	n := g.NumVertices()
	c := cfg.DownsampleC(n)
	perUnit := float64(cfg.M) / g.TotalWeight()
	var strengths []float64
	if cfg.Downsample {
		strengths = g.Strengths()
	}

	// forVertex runs one vertex's full draw sequence, calling emit for every
	// head. Both passes route through it so their streams cannot drift.
	forVertex := func(src *rng.Source, u uint32, trials *int64, emit func(v uint32, r, s int, fixed uint64)) {
		du := g.Degree(u)
		if du == 0 {
			return
		}
		src.Seed(cfg.Seed, uint64(u))
		for i := 0; i < du; i++ {
			v := g.Neighbor(u, i)
			ew := g.EdgeWeight(u, i)
			perArc := perUnit * ew
			ne := int64(perArc)
			if frac := perArc - float64(ne); frac > 0 && src.Bernoulli(frac) {
				ne++
			}
			if ne == 0 {
				continue
			}
			pe := 1.0
			if cfg.Downsample {
				pe = ProbW(c, ew, strengths[u], strengths[v])
			}
			fixed := hashtable.ToFixed(1 / pe)
			for k := int64(0); k < ne; k++ {
				*trials++
				if pe < 1 && !src.Bernoulli(pe) {
					continue
				}
				r := 1 + src.Intn(cfg.T)
				s := src.Intn(r)
				emit(v, r, s, fixed)
			}
		}
	}

	bounds := par.Blocks(n, enumGrain)
	nb := len(bounds) - 1
	counts := make([]int64, nb)
	trials := make([]int64, nb)

	// Pass 1: count heads per block (the r and s draws keep the stream
	// aligned with the fill pass; their values are discarded).
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var src rng.Source
		var nHeads int64
		for ui := lo; ui < hi; ui++ {
			forVertex(&src, uint32(ui), &trials[b], func(uint32, int, int, uint64) {
				nHeads++
			})
		}
		counts[b] = nHeads
	})

	var stats Stats
	for _, t := range trials {
		stats.Trials += t
	}
	total := par.ExclusiveScan(counts)
	stats.Heads = total
	heads := make([]headRec, total)

	// Pass 2: re-run the identical draws, writing records at the stable
	// indices the scan assigned.
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var src rng.Source
		var discard int64
		w := counts[b]
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			forVertex(&src, u, &discard, func(v uint32, r, s int, fixed uint64) {
				heads[w] = headRec{fixed: fixed, e0: u, e1: v, s0: uint16(s), s1: uint16(r - 1 - s)}
				w++
			})
		}
	})
	return heads, stats
}

// runWaveTombstone is the tombstone-round walker: states and scratch hold
// 2*len(wave) states.
func runWaveTombstone(g *graph.Graph, wave []headRec, states, scratch []uint64, cursors []graph.NeighborCursor, seed, base uint64) {
	n := 2 * len(wave)
	if n == 0 {
		return
	}
	par.ForRange(len(wave), walkGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			h := wave[i]
			states[2*i] = packState(h.e0, int(h.s0), 0, i)
			states[2*i+1] = packState(h.e1, int(h.s1), 1, i)
		}
	})

	walkSeed := seed ^ walkSeedTag
	weighted := g.Weighted()
	for round := 0; n > 0; round++ {
		slices.Sort(states[:n]) // visit order cannot change an endpoint
		par.WorkerFor(n, walkGrain, func(worker, lo, hi int) {
			nc := &cursors[worker]
			for rs := lo; rs < hi; {
				cur := uint32(states[rs] >> batchCurOff)
				re := rs + 1
				for re < hi && uint32(states[re]>>batchCurOff) == cur {
					re++
				}
				d := g.Degree(cur)
				begun := false
				for i := rs; i < re; i++ {
					st := states[i]
					steps := int(st>>batchStepOff) & (1<<batchStepBits - 1)
					head := int(st & (MaxWaveHeads - 1))
					side := st >> batchSideBit & 1
					if steps == 0 {
						if side == 0 {
							wave[head].e0 = cur
						} else {
							wave[head].e1 = cur
						}
						states[i] = stateTombstone
						continue
					}
					// step index == round: all live states advance once per
					// round.
					next := cur // isolated: stay (cannot happen on symmetric graphs)
					if d > 0 {
						if !begun {
							// Position once per run; the cursor picks a full
							// decode vs lazy per-block strategy from the run
							// size.
							nc.Begin(cur, re-rs)
							begun = true
						}
						draw := rng.Hash64(walkSeed, (base+uint64(head))<<10|uint64(round)<<1|side)
						if weighted {
							next = nc.AliasNeighbor(draw)
						} else {
							pick, _ := bits.Mul64(draw, uint64(d))
							next = nc.Neighbor(int(pick))
						}
					}
					states[i] = packState(next, steps-1, int(side), head)
				}
				rs = re
			}
		})
		n = compactStates(states[:n], scratch)
		states, scratch = scratch, states
	}
}

// compactStates writes src's live (non-tombstone) states into dst in order
// and returns how many there are: per-block live counts, an exclusive scan
// for stable offsets, and an exact-fit parallel fill.
func compactStates(src, dst []uint64) int {
	bounds := par.Blocks(len(src), 4096)
	counts := make([]int64, len(bounds)-1)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		var c int64
		for i := lo; i < hi; i++ {
			if src[i] != stateTombstone {
				c++
			}
		}
		counts[b] = c
	})
	total := par.ExclusiveScan(counts)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			if src[i] != stateTombstone {
				dst[w] = src[i]
				w++
			}
		}
	})
	return int(total)
}

// steppingSides counts the sides of heads with at least one step to walk.
func steppingSides(heads []headRec) int64 {
	var n int64
	for _, h := range heads {
		n += int64(min(h.s0, 1) + min(h.s1, 1))
	}
	return n
}

// oracleFixture is one graph of the oracle sweeps.
type oracleFixture struct {
	name string
	g    *graph.Graph
}

// oracleFixtures returns the representations the oracle tests sweep: the raw
// CSR, its compressed twins at block sizes 2 (lazy per-block cursor path) and
// 64 (full decode), and a weighted graph (alias draws, weighted budgets).
func oracleFixtures(t *testing.T) []oracleFixture {
	t.Helper()
	g := chordGraph(t, 300, 3, 42)
	gc2, err := g.ToCompressed(2)
	if err != nil {
		t.Fatal(err)
	}
	gc64, err := g.ToCompressed(64)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleFixture{
		{"raw", g},
		{"compressed-bs2", gc2},
		{"compressed-bs64", gc64},
		{"weighted", weightedChordGraph(t, 300, 3, 43)},
	}
}

// oracleConfig sizes M so every T costs a similar number of walk steps: T = 1
// (every side has zero steps) gets the most heads, T = 512 the fewest.
func oracleConfig(T int, downsample bool) Config {
	return Config{T: T, M: int64(16_000 / (1 + T/8)), Downsample: downsample, Seed: uint64(1000 + T)}
}

// TestEnumerateHeadsBitIdenticalToTwoPass checks the one-pass enumerator
// against the two-pass oracle record for record — arc, split, weight and
// global index — with Stats and the stepping-side count equal, across
// GOMAXPROCS, representation, downsampling and walk length. Besides the production slack it runs with
// regions sized to the bare expectation (some blocks spill) and to nothing
// (every head spills). Wave size does not reach enumeration;
// TestRunWaveBitIdenticalToTombstoneWalk sweeps it.
func TestEnumerateHeadsBitIdenticalToTwoPass(t *testing.T) {
	defer func(s float64) { enumSlack = s }(enumSlack)
	for _, fx := range oracleFixtures(t) {
		for _, ds := range []bool{false, true} {
			for _, T := range []int{1, 2, 10, 512} {
				cfg := oracleConfig(T, ds)
				for _, procs := range []int{1, 2, 3, 4} {
					for _, slack := range []float64{6, 0, -1e9} {
						name := fmt.Sprintf("%s/ds=%v/T=%d/procs=%d/slack=%g", fx.name, ds, T, procs, slack)
						prev := runtime.GOMAXPROCS(procs)
						enumSlack = slack
						want, wantStats := enumerateHeadsTwoPass(fx.g, cfg)
						got, stepping, gotStats := enumerateHeads(fx.g, cfg, newCursors(fx.g))
						runtime.GOMAXPROCS(prev)
						if gotStats != wantStats {
							t.Fatalf("%s: stats %+v, oracle %+v", name, gotStats, wantStats)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d heads, oracle %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: head %d = %+v, oracle %+v", name, i, got[i], want[i])
							}
						}
						if want := steppingSides(want); stepping != want {
							t.Fatalf("%s: %d stepping sides, oracle %d", name, stepping, want)
						}
					}
				}
			}
		}
	}
}

// TestRunWaveBitIdenticalToTombstoneWalk checks the regrouping walker
// against the tombstone-round oracle: every head's endpoints equal, wave by
// wave, across GOMAXPROCS, representation, downsampling, walk length and
// wave size (0 = one wave of everything; one-head waves walk the first 4
// heads only, which is all they add). The wide-ids fixture has vertex ids
// of 17 bits, past one regroup digit, so its buckets are sorted after each
// scatter.
func TestRunWaveBitIdenticalToTombstoneWalk(t *testing.T) {
	fixtures := append(oracleFixtures(t), oracleFixture{"wide-ids", chordGraph(t, 100_000, 1, 44)})
	for _, fx := range fixtures {
		for _, ds := range []bool{false, true} {
			for _, T := range []int{1, 2, 10, 512} {
				cfg := oracleConfig(T, ds)
				all, _, _ := enumerateHeads(fx.g, cfg, newCursors(fx.g))
				for _, waveSize := range []int{1, 1024, 4097, 0} {
					heads := all
					if waveSize == 1 {
						heads = all[:min(len(all), 4)]
					}
					ws := waveSize
					if ws <= 0 {
						ws = len(heads)
					}
					for _, procs := range []int{1, 2, 3, 4} {
						name := fmt.Sprintf("%s/ds=%v/T=%d/wave=%d/procs=%d", fx.name, ds, T, waveSize, procs)
						prev := runtime.GOMAXPROCS(procs)
						got := append([]headRec(nil), heads...)
						want := append([]headRec(nil), heads...)
						cursors := newCursors(fx.g)
						// The walker's buffers are sized like SampleBatched sizes them.
						states := make([]uint64, min(steppingSides(heads), int64(2*ws)))
						scratch := make([]uint64, len(states))
						oStates := make([]uint64, 2*ws)
						oScratch := make([]uint64, 2*ws)
						for lo := 0; lo < len(heads); lo += ws {
							hi := min(lo+ws, len(heads))
							runWave(fx.g, got[lo:hi], states, scratch, cursors, cfg.Seed, uint64(lo))
							runWaveTombstone(fx.g, want[lo:hi], oStates, oScratch, cursors, cfg.Seed, uint64(lo))
						}
						runtime.GOMAXPROCS(prev)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: head %d = %+v, oracle %+v", name, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// sampleUniform is the textbook NetSMF process Algorithm 2 replaced, kept as
// the statistical reference of TestSampleUniformMatchesPerEdgeDistribution:
// each of cfg.M trials draws a uniformly random arc from a flat arc array
// (paper §4.2: O(1) draws for O(m) extra memory), applies the downsampling
// coin and PathSamples. Uniform-arc sampling equals Sample's distribution
// only for unit weights, so weighted graphs are rejected.
func sampleUniform(g *graph.Graph, cfg Config) (*csrView, Stats, error) {
	if err := cfg.Check(); err != nil {
		return nil, Stats{}, err
	}
	if cfg.M <= 0 {
		return nil, Stats{}, fmt.Errorf("sampler: M must be positive, got %d", cfg.M)
	}
	if g.NumEdges() == 0 {
		return nil, Stats{}, fmt.Errorf("sampler: graph has no edges")
	}
	if g.Weighted() {
		return nil, Stats{}, fmt.Errorf("sampler: uniform-arc sampling requires an unweighted graph")
	}
	c := cfg.DownsampleC(g.NumVertices())
	us, vs := arcArray(g)
	var ref refSink
	var trials, heads int64
	forBuffered(&ref, int(cfg.M), 1<<12, func(lo, hi int, buf *pairBuf) {
		var src rng.Source
		src.Seed(cfg.Seed^0xedce, uint64(lo))
		var localTrials, localHeads int64
		for i := lo; i < hi; i++ {
			a := src.Intn(len(us))
			u, v := us[a], vs[a]
			localTrials++
			pe := 1.0
			if cfg.Downsample {
				pe = Prob(c, g.Degree(u), g.Degree(v))
			}
			if pe < 1 && !src.Bernoulli(pe) {
				continue
			}
			localHeads++
			r := 1 + src.Intn(cfg.T)
			ue, ve := PathSample(g, u, v, r, &src)
			buf.add(ue, ve, hashtable.ToFixed(1/pe))
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	table := ref.group(g.NumVertices())
	return table, Stats{Trials: trials, Heads: heads, DistinctEntries: table.Len()}, nil
}

// arcArray lists every directed arc of g as parallel source and destination
// arrays: sampleUniform's flat arc array.
func arcArray(g *graph.Graph) (us, vs []uint32) {
	for u := 0; u < g.NumVertices(); u++ {
		for i := 0; i < g.Degree(uint32(u)); i++ {
			us, vs = append(us, uint32(u)), append(vs, g.Neighbor(uint32(u), i))
		}
	}
	return us, vs
}

// sampleTableOracle is the per-arc pass Sample replaced, kept as its oracle:
// the same draws, every head's two oriented pairs aggregated as that pass
// aggregated them in a hash table, here by the reference sort (refSink),
// which gives the table's sums and the sorted layout bit for bit.
func sampleTableOracle(g *graph.Graph, cfg Config) (*csrView, Stats) {
	c := cfg.DownsampleC(g.NumVertices())
	perUnit := float64(cfg.M) / g.TotalWeight()
	strengths := g.Strengths()
	var ref refSink
	var trials, heads int64
	forBuffered(&ref, g.NumVertices(), 32, func(lo, hi int, buf *pairBuf) {
		var src rng.Source
		var localTrials, localHeads int64
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			du := g.Degree(u)
			if du == 0 {
				continue
			}
			src.Seed(cfg.Seed, uint64(u))
			for i := 0; i < du; i++ {
				v := g.Neighbor(u, i)
				ew := g.EdgeWeight(u, i)
				perArc := perUnit * ew
				ne := int64(perArc)
				if frac := perArc - float64(ne); frac > 0 && src.Bernoulli(frac) {
					ne++
				}
				if ne == 0 {
					continue
				}
				pe := 1.0
				if cfg.Downsample {
					pe = ProbW(c, ew, strengths[u], strengths[v])
				}
				fixed := hashtable.ToFixed(1 / pe)
				for k := int64(0); k < ne; k++ {
					localTrials++
					if pe < 1 && !src.Bernoulli(pe) {
						continue
					}
					localHeads++
					r := 1 + src.Intn(cfg.T)
					ue, ve := PathSample(g, u, v, r, &src)
					buf.add(ue, ve, fixed)
				}
			}
		}
		atomicAdd(&trials, localTrials)
		atomicAdd(&heads, localHeads)
	})
	table := ref.group(g.NumVertices())
	return table, Stats{Trials: trials, Heads: heads, DistinctEntries: table.Len()}
}

// TestSampleBitIdenticalToTableOracle: Sample's grouped CSR equals, to the
// bit, the drain of the table the replaced pass filled with both
// orientations of every head, with the same Trials, Heads and distinct
// entries: on RMAT-12 at the default config's budget (M = T·m) and on a
// weighted graph, with downsampling on and off, at GOMAXPROCS 1, 2 and 4.
func TestSampleBitIdenticalToTableOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []oracleFixture{{"rmat12", rmat}, {"weighted", weightedChordGraph(t, 2000, 3, 44)}} {
		for _, down := range []bool{true, false} {
			cfg := Config{T: 10, M: int64(10 * fx.g.NumEdges() / 2), Downsample: down, Seed: 12}
			if !down {
				cfg.M /= 8 // every trial is a head without the coin
			}
			table, want := sampleTableOracle(fx.g, cfg)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%s downsample=%v procs=%d", fx.name, down, procs)
				sink, got, err := Sample(fx.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Trials != want.Trials || got.Heads != want.Heads || got.DistinctEntries != want.DistinctEntries {
					t.Fatalf("%s: trials/heads/entries %d/%d/%d, oracle %d/%d/%d", name,
						got.Trials, got.Heads, got.DistinctEntries, want.Trials, want.Heads, want.DistinctEntries)
				}
				sameCSR(t, name, sink, table, fx.g.NumVertices())
			}
		}
	}
}

// pairBuf is one chunk's pending oriented pairs for the table oracles: each
// head deposits (e0, e1) and (e1, e0) with its weight, and the buffer
// flushes into the reference every pairBufLen pairs.
type pairBuf struct {
	ref         *refSink
	keys, fixed []uint64
}

// pairBufLen is a pairBuf's flush length.
const pairBufLen = 2048

// add buffers both orientations of one head, flushing when full.
func (b *pairBuf) add(e0, e1 uint32, fixed uint64) {
	b.keys = append(b.keys, hashtable.Key(e0, e1), hashtable.Key(e1, e0))
	b.fixed = append(b.fixed, fixed, fixed)
	if len(b.keys) >= pairBufLen {
		b.flush()
	}
}

// flush hands the pending pairs to the reference.
func (b *pairBuf) flush() {
	b.ref.add(b.keys, b.fixed)
	b.keys, b.fixed = b.keys[:0], b.fixed[:0]
}

// forBuffered runs body over [0, n) in par.ForRange chunks, handing each
// chunk its own pair buffer into ref and flushing it when the chunk ends.
func forBuffered(ref *refSink, n, grain int, body func(lo, hi int, buf *pairBuf)) {
	par.ForRange(n, grain, func(lo, hi int) {
		buf := pairBuf{ref, make([]uint64, 0, pairBufLen), make([]uint64, 0, pairBufLen)}
		body(lo, hi, &buf)
		buf.flush()
	})
}

// refSink is the reference aggregate of the sampler's differential tests.
// It keeps every pair it is given, from any goroutine, and group aggregates
// them by a standard-library sort and a run-length fixed-point sum, sharing
// no code with Group, which the tests check against it.
type refSink struct {
	mu          sync.Mutex
	keys, fixed []uint64
}

// add keeps a batch of pairs.
func (s *refSink) add(keys, fixed []uint64) {
	s.mu.Lock()
	s.keys, s.fixed = append(s.keys, keys...), append(s.fixed, fixed...)
	s.mu.Unlock()
}

// group returns the kept pairs grouped over n vertices: sorted by key, each
// run of equal keys one entry whose weight is the run's fixed-point sum.
func (s *refSink) group(n int) *csrView {
	type pair struct{ key, fixed uint64 }
	pairs := make([]pair, len(s.keys))
	for i := range pairs {
		pairs[i] = pair{s.keys[i], s.fixed[i]}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	c := &csrView{rowPtr: make([]int64, n+1)}
	for i := 0; i < len(pairs); {
		k, f := pairs[i].key, pairs[i].fixed
		for i++; i < len(pairs) && pairs[i].key == k; i++ {
			f += pairs[i].fixed
		}
		c.rowPtr[k>>32+1]++
		c.cols, c.ws = append(c.cols, uint32(k)), append(c.ws, hashtable.FromFixed(f))
	}
	for r := 0; r < n; r++ {
		c.rowPtr[r+1] += c.rowPtr[r]
	}
	return c
}

// csrView is a grouped aggregate, a Sink whose entries tests can look up.
type csrView struct {
	rowPtr []int64
	cols   []uint32
	ws     []float64
}

// groupedTable views a pass's grouped aggregate.
func groupedTable(g *graph.Graph, sink Sink) *csrView {
	rowPtr, cols, ws := sink.DrainCSR(g.NumVertices())
	return &csrView{rowPtr, cols, ws}
}

// DrainCSR returns the arrays themselves.
func (c *csrView) DrainCSR(int) ([]int64, []uint32, []float64) { return c.rowPtr, c.cols, c.ws }

// Len returns the number of entries.
func (c *csrView) Len() int { return len(c.cols) }

// Get returns the weight of (u, v) and whether it is present: a binary
// search of row u.
func (c *csrView) Get(u, v uint32) (float64, bool) {
	lo := c.rowPtr[u]
	i, ok := slices.BinarySearch(c.cols[lo:c.rowPtr[u+1]], v)
	if !ok {
		return 0, false
	}
	return c.ws[lo+int64(i)], true
}

// Drain returns every entry as parallel slices, row by row.
func (c *csrView) Drain() (us, vs []uint32, ws []float64) {
	us = make([]uint32, len(c.cols))
	for r := 0; r+1 < len(c.rowPtr); r++ {
		for p := c.rowPtr[r]; p < c.rowPtr[r+1]; p++ {
			us[p] = uint32(r)
		}
	}
	return us, c.cols, c.ws
}

package sampler

import (
	"sync"
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
	"lightne/internal/hashtable"
)

// Benchmark fixture: a skewed random graph and a trial budget large enough
// that sampling dominates setup. All variants sample the same distribution,
// so ns/op is directly comparable across them (benchstat-friendly with
// -count).
func benchGraphAndConfig(b *testing.B, shards int) (*graph.Graph, Config) {
	g := chordGraph(b, 4000, 6, 1)
	cfg := Config{T: 10, M: 1_500_000, Downsample: true, Seed: 1, Shards: shards}
	return g, cfg
}

// BenchmarkSample is the per-arc reference sampler (walks interleaved with
// inserts, no batching).
func BenchmarkSample(b *testing.B) {
	g, cfg := benchGraphAndConfig(b, 1)
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = Sample(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// BenchmarkSampleSerialFlush is the pre-pipeline batched sampler kept as the
// baseline: serial head enumeration, serial per-wave flush one head at a time,
// serial compaction.
func BenchmarkSampleSerialFlush(b *testing.B) {
	g, cfg := benchGraphAndConfig(b, 1)
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = SampleBatchedSerial(g, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// BenchmarkSampleBatched is the wave pipeline: parallel enumeration,
// lock-step waves, and the walked pairs grouped by one bucketed sort.
func BenchmarkSampleBatched(b *testing.B) {
	g, cfg := benchGraphAndConfig(b, 1)
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = SampleBatched(g, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// BenchmarkSamplePipelined is the wave pipeline configured with four
// shards, which it checks and otherwise ignores (it builds no table): it
// should time as BenchmarkSampleBatched does.
func BenchmarkSamplePipelined(b *testing.B) {
	g, cfg := benchGraphAndConfig(b, 4)
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = SampleBatched(g, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// BenchmarkSampleBatchedCompressed is the wave pipeline walking the
// parallel-byte compressed adjacency natively: per-worker cursors decode each
// block a radix-grouped run touches once, and no uncompressed edge array
// exists at any point. Compare against BenchmarkSamplePipelined for the cost
// of walking compressed; the graph-B metric shows the storage saved.
func BenchmarkSampleBatchedCompressed(b *testing.B) {
	g, cfg := benchGraphAndConfig(b, 4)
	cg, err := g.ToCompressed(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cg.SizeBytes()), "graph-B")
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = SampleBatched(cg, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// BenchmarkSampleBatchedWeighted is the wave pipeline on the
// weighted twin of the benchmark fixture: every walk step resolves a Vose
// alias table from its keyed draw instead of a bare multiply-shift, and
// enumeration spreads the budget as M·w_e/vol per arc. Compare against
// BenchmarkSamplePipelined for the cost of weighted draws.
func BenchmarkSampleBatchedWeighted(b *testing.B) {
	g := weightedChordGraph(b, 4000, 6, 1)
	cfg := Config{T: 10, M: 1_500_000, Downsample: true, Seed: 1, Shards: 4}
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = SampleBatched(g, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// rmat13 is the harness's embed-stream shape: RMAT scale 13, edge factor 20,
// T = 10, M = 2·T·m (m undirected edges), downsampling on, 4 shards. Built
// once per test binary; raw is the CSR, compressed its parallel-byte twin at
// the default block size (what the harness's mmap'd LNGC file holds).
var rmat13 = sync.OnceValues(func() (raw, compressed *graph.Graph) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 13, EdgeFactor: 20, Seed: 1})
	if err != nil {
		panic(err)
	}
	cg, err := g.ToCompressed(0)
	if err != nil {
		panic(err)
	}
	return g, cg
})

func rmat13Config(g *graph.Graph) Config {
	const t = 10
	return Config{T: t, M: int64(2 * t * g.NumEdges() / 2), Downsample: true, Seed: 1, Shards: 4}
}

// BenchmarkSampleBatchedRMAT13 is the wave pipeline at the harness's
// embed-stream shape: the compressed RMAT-13 graph walked natively, its
// pairs grouped into the sparsifier's CSR.
func BenchmarkSampleBatchedRMAT13(b *testing.B) {
	_, cg := rmat13()
	benchmarkSampler(b, func() (Stats, error) {
		_, stats, err := SampleBatched(cg, rmat13Config(cg), 0)
		return stats, err
	})
}

// BenchmarkSampleRMAT13 is the per-arc sampler on the raw twin of the same
// graph with the same config, into a four-shard table it does not drain:
// the other side of the per-arc vs batched pair.
func BenchmarkSampleRMAT13(b *testing.B) {
	g, _ := rmat13()
	benchmarkSampler(b, func() (Stats, error) {
		_, stats, err := Sample(g, rmat13Config(g))
		return stats, err
	})
}

func benchmarkSampler(b *testing.B, run func() (Stats, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	var stats Stats
	for i := 0; i < b.N; i++ {
		var err error
		if stats, err = run(); err != nil {
			b.Fatal(err)
		}
	}
	reportSamplerMetrics(b, stats)
}

// reportSamplerMetrics derives per-run throughput from the last run's stats
// (every run samples the same distribution, so Heads is the same draw count).
func reportSamplerMetrics(b *testing.B, stats Stats) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(stats.Heads)*float64(b.N)/sec, "heads/s")
	}
	b.ReportMetric(float64(stats.PeakTableBytes), "peak-table-B")
}

// BenchmarkGroupOrientation times the grouping alone on the harness's two
// pair sets: RMAT-12's per-arc pass at the default budget (M = T·m, as
// embed-default samples it) and RMAT-13's wave pass at M = 2·T·m
// (embed-stream). one/ groups each head's one-orientation pair into the
// upper triangle, as both passes hand it over (hashtable.GroupUpperCSR, over
// Sample's worker segments or the wave pass's one array); two/ groups both
// orientations of every head with hashtable.GroupCSR, as both passes did
// before.
func BenchmarkGroupOrientation(b *testing.B) {
	rmat12, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys, fixed, _ := samplePairs(rmat12, Config{T: 10, M: int64(10 * rmat12.NumEdges() / 2), Downsample: true, Seed: 1})
	g13, _ := rmat13()
	heads, stepping, _ := enumerateHeads(g13, rmat13Config(g13), newCursors(g13))
	states := make([]uint64, stepping)
	runWave(g13, heads, states, make([]uint64, len(states)), newCursors(g13), 1, 0)
	wk, wf := make([]uint64, len(heads)), make([]uint64, len(heads))
	for i, h := range heads {
		wk[i], wf[i] = hashtable.SymmetricPair(h.e0, h.e1, h.fixed)
	}
	for _, set := range []struct {
		name        string
		n           int
		keys, fixed [][]uint64
	}{
		{"rmat12-per-arc", rmat12.NumVertices(), keys, fixed},
		{"rmat13-wave", g13.NumVertices(), [][]uint64{wk}, [][]uint64{wf}},
	} {
		var both, bothFixed []uint64
		for s, seg := range set.keys {
			for i, k := range seg {
				u, v := hashtable.UnpackKey(k)
				f := set.fixed[s][i]
				if u == v {
					f /= 2 // the two orientations' weights, which the pair summed
				}
				both, bothFixed = append(both, k, hashtable.Key(v, u)), append(bothFixed, f, f)
			}
		}
		b.Run(set.name+"/one", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashtable.GroupUpperCSR(set.keys, set.fixed, set.n)
			}
		})
		b.Run(set.name+"/two", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashtable.GroupCSR(both, bothFixed, set.n)
			}
		})
	}
}

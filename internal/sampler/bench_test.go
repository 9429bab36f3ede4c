package sampler

import (
	"sync"
	"testing"

	"lightne/internal/gen"
	"lightne/internal/graph"
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

// BenchmarkSampleBatched is the wave pipeline on a single shared table:
// parallel enumeration, walking overlapped with draining, parallel-chunk
// inserts.
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

// BenchmarkSamplePipelined is the full configuration the tentpole targets:
// the wave pipeline draining into a sharded sink via radix-partitioned,
// contention-free batch inserts.
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

// BenchmarkSampleBatchedCompressed is the sharded wave pipeline walking the
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

// BenchmarkSampleBatchedWeighted is the sharded wave pipeline on the
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
// embed-stream shape: the compressed RMAT-13 graph walked natively into a
// 4-shard sink.
func BenchmarkSampleBatchedRMAT13(b *testing.B) {
	_, cg := rmat13()
	benchmarkSampler(b, func() (Stats, error) {
		_, stats, err := SampleBatched(cg, rmat13Config(cg), 0)
		return stats, err
	})
}

// BenchmarkSampleRMAT13 is the per-arc sampler on the raw twin of the same
// graph with the same config: the other side of the per-arc vs batched pair.
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

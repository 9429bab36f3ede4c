package sampler

import (
	"testing"

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

// reportSamplerMetrics derives per-run throughput from the last run's stats
// (every run samples the same distribution, so Heads is the same draw count).
func reportSamplerMetrics(b *testing.B, stats Stats) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(stats.Heads)*float64(b.N)/sec, "heads/s")
	}
	b.ReportMetric(float64(stats.PeakTableBytes), "peak-table-B")
}

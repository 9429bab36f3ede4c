// Package lightne is a pure-Go implementation of LightNE (Qiu, Dhulipala,
// Tang, Peng, Wang — SIGMOD 2021), a lightweight CPU-only shared-memory
// system for network embedding. It combines NetSMF-style spectral
// sparsification of the DeepWalk matrix (with LightNE's degree-based edge
// downsampling) and ProNE-style spectral propagation, on top of a
// from-scratch parallel graph-processing and linear-algebra stack.
//
// Basic usage:
//
//	g, err := lightne.LoadGraph(file, 0)        // edge list "u v" per line
//	res, err := lightne.Embed(g, lightne.DefaultConfig(128))
//	vec := res.Embedding.Row(42)                // 128-dim vector of vertex 42
//
// The package also exposes the baselines (NetSMF as a Config preset, ProNE,
// the SGD baselines), the paper's evaluation protocols (multi-label node
// classification, link-prediction ranking) and deterministic synthetic
// dataset replicas, so the paper's experiments can be reproduced end to
// end; see cmd/lightne-bench and EXPERIMENTS.md.
package lightne

import (
	"io"

	"lightne/internal/baselines"
	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/prone"
	"lightne/internal/quant"
	"lightne/internal/svd"
)

// Graph is an immutable CSR graph (optionally Ligra+ compressed).
type Graph = graph.Graph

// Edge is a vertex pair used when constructing graphs: an undirected edge.
type Edge = graph.Edge

// Matrix is a row-major dense matrix; embeddings are returned as matrices
// whose i-th row is vertex i's vector.
type Matrix = dense.Matrix

// Config controls a LightNE embedding run.
type Config = core.Config

// Result bundles an embedding with per-stage timings and diagnostics.
type Result = core.Result

// Timing is the sparsifier/SVD/propagation wall-clock breakdown.
type Timing = core.Timing

// PropagationConfig parameterizes the spectral-propagation step.
type PropagationConfig = prone.PropagationConfig

// SketchKind selects the test-matrix family of the single-pass sketched
// factorization (Config.StreamedSVD).
type SketchKind = svd.SketchKind

const (
	// SketchSparseSign is the memory-optimal default: a handful of ±1
	// entries per row of each test matrix.
	SketchSparseSign = svd.SketchSparseSign
	// SketchGaussian is the dense accuracy cross-check; it costs two extra
	// n-row dense matrices.
	SketchGaussian = svd.SketchGaussian
)

// NewGraph builds the undirected graph with n vertices whose edges are
// arcs: self-loops dropped, both orientations stored, duplicates merged.
func NewGraph(n int, arcs []Edge) (*Graph, error) {
	return graph.FromEdges(n, arcs)
}

// WeightedEdge is an undirected edge with a positive weight.
type WeightedEdge = graph.WeightedEdge

// NewWeightedGraph builds a weighted graph as NewGraph does, summing the
// weights of duplicates; the pipeline then uses weighted degrees,
// weight-proportional sampling and weighted random walks, per the paper's
// A_uv-carrying formulas (§3.2).
func NewWeightedGraph(n int, arcs []WeightedEdge) (*Graph, error) {
	return graph.FromWeightedEdges(n, arcs)
}

// LoadWeightedGraph parses "u v w" lines into a weighted graph (weight
// defaults to 1 when the third column is absent).
func LoadWeightedGraph(r io.Reader, n int) (*Graph, error) {
	return graph.LoadWeightedEdgeList(r, n)
}

// LoadGraph parses a whitespace-separated edge list ("u v" per line, '#' and
// '%' lines are comments), streamed in blocks that all workers parse. If
// n <= 0 the vertex count is inferred from the maximum ID.
func LoadGraph(r io.Reader, n int) (*Graph, error) {
	return graph.LoadEdgeList(r, n)
}

// CompressGraph returns a structurally identical graph whose adjacency is
// stored in Ligra+ parallel-byte form (sharing the offsets array, dropping
// the uncompressed edge array). blockSize <= 0 selects the default; returns
// g unchanged if already compressed. Weighted graphs are not compressible.
func CompressGraph(g *Graph, blockSize int) (*Graph, error) {
	return g.ToCompressed(blockSize)
}

// MmapGraph memory-maps an LNGC compressed graph file (written by
// Graph.WriteBinary on a compressed graph). The adjacency is served
// straight from the page cache — load time and resident memory are O(1)
// regardless of graph size, and no CSR edge array is ever built. Call
// (*Graph).Munmap to release the mapping, and (*Graph).Validate once if the
// file is untrusted.
func MmapGraph(path string) (*Graph, error) {
	return graph.Mmap(path)
}

// DefaultConfig returns the paper's default configuration at dimension d
// (T=10, M=T·m, downsampling and propagation on).
func DefaultConfig(d int) Config { return core.DefaultConfig(d) }

// SmallConfig is the LightNE-Small preset (M = 0.1·T·m).
func SmallConfig(d int) Config { return core.SmallConfig(d) }

// LargeConfig is the LightNE-Large preset (M = 20·T·m).
func LargeConfig(d int) Config { return core.LargeConfig(d) }

// NetSMFConfig is the paper's NetSMF baseline: the same pipeline with
// downsampling and propagation off (raise SampleMultiple for its 8·T·m).
func NetSMFConfig(d int) Config { return core.NetSMFConfig(d) }

// Embed runs the LightNE pipeline on g.
func Embed(g *Graph, cfg Config) (*Result, error) { return core.Embed(g, cfg) }

// ProNEConfig configures the ProNE+ baseline.
type ProNEConfig = prone.Config

// DefaultProNEConfig returns ProNE's published defaults at dimension d.
func DefaultProNEConfig(d int) ProNEConfig { return prone.DefaultConfig(d) }

// ProNE runs the ProNE+ baseline (factorization + propagation).
func ProNE(g *Graph, cfg ProNEConfig) (*prone.Result, error) { return prone.Run(g, cfg) }

// Propagate applies spectral propagation to an existing embedding.
func Propagate(g *Graph, x *Matrix, cfg PropagationConfig) (*Matrix, error) {
	return prone.Propagate(g, x, cfg)
}

// DefaultPropagation returns the ProNE propagation defaults.
func DefaultPropagation() PropagationConfig { return prone.DefaultPropagation() }

// DeepWalkConfig configures the DeepWalk SGD baseline (GraphVite stand-in).
type DeepWalkConfig = baselines.DeepWalkConfig

// DefaultDeepWalkConfig returns conventional DeepWalk hyper-parameters.
func DefaultDeepWalkConfig(d int) DeepWalkConfig { return baselines.DefaultDeepWalk(d) }

// DeepWalk trains the DeepWalk baseline.
func DeepWalk(g *Graph, cfg DeepWalkConfig) (*Matrix, error) { return baselines.DeepWalk(g, cfg) }

// LINEConfig configures the LINE SGD baseline (PBG stand-in).
type LINEConfig = baselines.LINEConfig

// DefaultLINEConfig returns conventional LINE hyper-parameters.
func DefaultLINEConfig(d int) LINEConfig { return baselines.DefaultLINE(d) }

// LINE trains the LINE(2nd) baseline.
func LINE(g *Graph, cfg LINEConfig) (*Matrix, error) { return baselines.LINE(g, cfg) }

// NetMFConfig configures the exact dense NetMF baseline.
type NetMFConfig = baselines.NetMFConfig

// NetMFExact runs the exact dense NetMF factorization (small graphs only).
func NetMFExact(g *Graph, cfg NetMFConfig) (*Matrix, error) { return baselines.NetMFExact(g, cfg) }

// Node2VecConfig configures the node2vec baseline (biased 2nd-order walks).
type Node2VecConfig = baselines.Node2VecConfig

// DefaultNode2VecConfig returns conventional node2vec hyper-parameters.
func DefaultNode2VecConfig(d int) Node2VecConfig { return baselines.DefaultNode2Vec(d) }

// Node2Vec trains the node2vec baseline: DeepWalk's trainer over
// second-order (p, q)-biased walks.
func Node2Vec(g *Graph, cfg Node2VecConfig) (*Matrix, error) { return baselines.Node2Vec(g, cfg) }

// Float32Embedding is a half-size (single-precision) embedding for serving.
type Float32Embedding = quant.Float32Embedding

// Int8Embedding is an 8x-smaller quantized embedding supporting cosine
// queries directly on the codes.
type Int8Embedding = quant.Int8Embedding

// QuantizeFloat32 converts an embedding to single precision (2x smaller,
// ~1e-7 relative error).
func QuantizeFloat32(x *Matrix) *Float32Embedding { return quant.ToFloat32(x) }

// QuantizeInt8 converts an embedding to per-row symmetric int8 codes
// (8x smaller; cosine similarities preserved to ~1e-2).
func QuantizeInt8(x *Matrix) *Int8Embedding { return quant.ToInt8(x) }

// MemoryEstimate predicts an Embed run's peak memory (the paper's
// sample-budget-vs-RAM planning arithmetic, §5.2.4/§5.3).
type MemoryEstimate = core.MemoryEstimate

// EstimateMemory predicts peak memory for running cfg on g without
// executing the pipeline.
func EstimateMemory(g *Graph, cfg Config) (MemoryEstimate, error) {
	return core.EstimateMemory(g, cfg)
}

// MaxAffordableSamples returns the largest sample count M whose predicted
// memory fits the byte budget — how the paper picks M under 1.5 TB.
func MaxAffordableSamples(g *Graph, cfg Config, budgetBytes int64) (int64, error) {
	return core.MaxAffordableSamples(g, cfg, budgetBytes)
}

// LoadGraphBinary reads a graph written by Graph.WriteBinary or
// lightne-gen -binary: LNG1 binary CSR, taken as stored, or compressed
// LNGC.
func LoadGraphBinary(r io.Reader) (*Graph, error) {
	return graph.ReadBinary(r)
}

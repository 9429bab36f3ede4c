// Package serve implements LightNE's embedding-serving subsystem: the
// paper's §1 motivation is that embeddings be "easily consumed in
// downstream machine learning and recommendation algorithms", and this
// package is the consumption side — a stdlib-only HTTP JSON API answering
// top-k cosine nearest-neighbor queries over an embedding artifact.
//
// The design centers on immutable snapshots behind an atomic pointer:
//
//   - A Snapshot is a read-only vector index plus provenance (version,
//     staleness, publish time). It is never mutated after Publish.
//   - A Store holds the current snapshot in an atomic.Pointer, so the read
//     path (every query) is a single atomic load — no locks, no reader
//     registration, no pauses when a new snapshot lands.
//   - An Ingester connects the dynamic-update layer (internal/dynamic) to
//     serving: edge batches stream in, the embedder resamples only the new
//     arcs, and the refreshed embedding is published as the next snapshot
//     while in-flight queries keep reading the old one.
//
// Queries run on quantized stores (internal/quant): float32 by default
// (half the memory of the training output, ~1e-7 error) or int8 (8x
// smaller) — the serving-memory trade the paper's deployments care about.
//
// Large snapshots optionally carry an IVF index (internal/ann) built at
// publish time and swapped atomically together with its embedding, so the
// query path drops from an O(n·d) exact scan to a sub-linear probe without
// giving up any of the immutability guarantees above. Snapshot.Search is
// the one query entry point: it takes the ANN path when an index is
// attached and falls back to the exact scan otherwise (and whenever the
// probe comes back short), so handlers never choose.
package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"lightne/internal/ann"
	"lightne/internal/dense"
	"lightne/internal/quant"
)

// Index is the immutable vector store a snapshot answers queries from.
// Implementations must be safe for concurrent readers.
type Index interface {
	// Rows returns the number of vectors (vertices).
	Rows() int
	// Dims returns the embedding dimension.
	Dims() int
	// Vector returns vertex v's embedding as float32 (dequantized if
	// needed). The caller must not modify the returned slice.
	Vector(v int) []float32
	// TopK returns the k vertices most cosine-similar to v (excluding v),
	// sorted by decreasing similarity.
	TopK(v, k int) ([]int, []float64, error)
	// MemoryBytes is the resident size of the store.
	MemoryBytes() int64
}

// NewIndex quantizes a float64 embedding into a serving index at the given
// precision ("float32" or "int8"; "" defaults to float32).
func NewIndex(x *dense.Matrix, precision string) (Index, error) {
	switch precision {
	case "", "float32":
		return flatIndex{quant.ToFloat32(x)}, nil
	case "int8":
		return flatIndex{quant.ToInt8(x)}, nil
	default:
		return nil, fmt.Errorf("serve: unknown precision %q (want float32 or int8)", precision)
	}
}

// flatIndex adapts any quant.Embedding to the serving Index — one
// implementation for every codec (the per-codec wrappers it replaced were
// method-for-method identical). The codec keeps full control of its query
// kernel: TopK and similarity computations run on the compressed form
// (int8 never leaves the integer domain), and Vector dequantizes into a
// fresh slice so callers can never alias the store.
type flatIndex struct{ e quant.Embedding }

func (ix flatIndex) Rows() int { r, _ := ix.e.Shape(); return r }
func (ix flatIndex) Dims() int { _, c := ix.e.Shape(); return c }

func (ix flatIndex) Vector(v int) []float32 {
	_, c := ix.e.Shape()
	out := make([]float32, c)
	ix.e.DequantTo(out, v)
	return out
}

func (ix flatIndex) TopK(v, k int) ([]int, []float64, error) { return ix.e.TopK(v, k) }
func (ix flatIndex) MemoryBytes() int64                      { return ix.e.MemoryBytes() }

// BuildANN constructs the IVF index for a snapshot about to be published,
// or reports (nil, nil) when the configuration says this snapshot should
// keep the exact scan: ANN disabled, or the snapshot smaller than
// cfg.MinRows (default ann.DefaultMinRows) — under that size the exact
// scan is already microseconds and approximation buys nothing.
func BuildANN(ix Index, cfg ann.Config) (*ann.Index, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	minRows := cfg.MinRows
	if minRows <= 0 {
		minRows = ann.DefaultMinRows
	}
	if ix.Rows() < minRows {
		return nil, nil
	}
	f, ok := ix.(flatIndex)
	if !ok {
		return nil, fmt.Errorf("serve: ANN requires a quantized index, got %T", ix)
	}
	// Every quant.Embedding is an ann.Vectors (Shape/Cosine/DequantTo), so
	// the index is built directly over the compressed store — no copy.
	return ann.Build(f.e, cfg)
}

// Snapshot is one immutable published embedding generation.
type Snapshot struct {
	Index Index
	// ANN is the snapshot's IVF index, or nil when this generation serves
	// exact scans only (small snapshot, ANN disabled, or a non-quantized
	// index). It is built over exactly the rows of Index and published in
	// the same atomic swap, so the pair is always mutually consistent.
	ANN     *ann.Index
	Version uint64
	// Staleness is the embedder's staleness ratio at publish time (fraction
	// of the edge set added since the last full resample); 0 for snapshots
	// loaded from static artifacts.
	Staleness float64
	Published time.Time
}

// Search answers one top-k query against this snapshot: the IVF probe when
// an ANN index is attached, the exact scan otherwise. If the probe returns
// fewer than the requested neighbors (all of them filed in unprobed lists —
// possible on tiny or skewed snapshots), the exact scan answers instead,
// so Search never degrades below the exact path's result quality floor.
//
// scanned is the number of row-distance computations spent (rows-1 for the
// exact scan) and approx reports which path produced the answer — both
// feed the serving metrics.
func (s *Snapshot) Search(v, k int) (ids []int, scores []float64, scanned int, approx bool, err error) {
	if s.ANN != nil {
		if f, ok := s.Index.(flatIndex); ok {
			ids, scores, scanned, err = s.ANN.Search(f.e, v, k, 0)
			want := k
			if max := s.ANN.Rows() - 1; want > max {
				want = max
			}
			if err == nil && len(ids) >= want {
				return ids, scores, scanned, true, nil
			}
			// Short probe or internal error: fall through to the exact scan
			// (its cost is the ceiling the server was sized for anyway).
		}
	}
	ids, scores, err = s.Index.TopK(v, k)
	if err != nil {
		return nil, nil, 0, false, err
	}
	return ids, scores, s.Index.Rows() - 1, false, nil
}

// Store hands out the current snapshot with a single atomic load and
// accepts new generations with a single atomic swap. Readers holding an
// old snapshot keep using it unharmed — snapshots are immutable, so a
// query that started before a Publish finishes on consistent data.
type Store struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Uint64
}

// NewStore returns an empty store; Snapshot() is nil until the first
// Publish.
func NewStore() *Store { return &Store{} }

// Snapshot returns the current generation, or nil before the first
// publish. The result must be treated as read-only.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Publish installs a new exact-scan generation built from ix and returns
// it. The version counter increases monotonically across publishes.
func (s *Store) Publish(ix Index, staleness float64) *Snapshot {
	return s.PublishWithANN(ix, nil, staleness)
}

// PublishWithANN installs a new generation carrying an optional ANN index
// (nil = exact scans). The embedding and its index land in one atomic
// swap: no reader can ever observe a snapshot whose ANN index describes a
// different embedding generation.
func (s *Store) PublishWithANN(ix Index, ivf *ann.Index, staleness float64) *Snapshot {
	snap := &Snapshot{
		Index:     ix,
		ANN:       ivf,
		Version:   s.version.Add(1),
		Staleness: staleness,
		Published: time.Now(),
	}
	s.cur.Store(snap)
	return snap
}

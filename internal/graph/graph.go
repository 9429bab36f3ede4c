// Package graph implements the shared-memory parallel graph-processing
// substrate LightNE builds on (the paper's GBBS/Ligra layer, §4.1). It
// provides an immutable CSR representation with optional Ligra+ parallel-byte
// compression, bulk-parallel primitives over vertices and edges, constant- or
// near-constant-time i-th-neighbor access (needed by random walk steps), and
// the random walk itself (Algorithm 1's building block).
//
// Graphs here are, for embedding purposes, undirected: the builder
// symmetrizes edge lists so each undirected edge {u,v} is stored as two
// directed arcs. NumEdges reports directed arcs, so vol(G) = NumEdges for a
// symmetrized unweighted graph, matching the paper's vol(G) = 2m convention
// (weighted graphs — weighted.go — generalize it to vol(G) = total weight).
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"

	"lightne/internal/compress"
	"lightne/internal/hashtable"
	"lightne/internal/par"
	"lightne/internal/rng"
)

// Edge is a directed arc; builders interpret pairs per their options.
type Edge struct {
	U, V uint32
}

// Graph is an immutable CSR graph. Exactly one of (edges) or (comp) backs
// the adjacency data depending on whether compression was requested.
// Weighted graphs (FromWeightedEdges) additionally carry per-edge weights
// and per-vertex alias tables for O(1) weighted neighbor sampling.
type Graph struct {
	n       int
	offsets []int64 // len n+1; valid in both representations
	edges   []uint32
	comp    *compress.Adjacency
	weights []float64 // nil for unweighted graphs; aligned with edges
	alias   *aliasTables
	mapped  []byte // LNGC mmap backing the arrays above, if Mmap-loaded
}

// Options controls graph construction. Builds always merge duplicate arcs.
type Options struct {
	// Symmetrize adds the reverse of every input arc (making the graph
	// undirected). Embedding pipelines always set this.
	Symmetrize bool
	// RemoveSelfLoops drops arcs with U == V.
	RemoveSelfLoops bool
	// Compress stores adjacency in the Ligra+ parallel-byte format.
	Compress bool
	// BlockSize is the compression block size; <= 0 means the default (64).
	BlockSize int
}

// DefaultOptions returns the options used by the embedding pipelines:
// symmetrized, simple (no loops or duplicates), uncompressed.
func DefaultOptions() Options {
	return Options{Symmetrize: true, RemoveSelfLoops: true}
}

// FromEdges builds a graph with n vertices from an arc list. Vertex IDs must
// be < n. The input slice is not modified. Arcs are packed as u<<32|v and
// grouped by hashtable.GroupCSR, without weights, into sorted adjacency
// rows; duplicate arcs merge.
func FromEdges(n int, arcs []Edge, opt Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	keys := make([]uint64, 0, len(arcs)*2)
	for _, e := range arcs {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) exceeds vertex count %d", e.U, e.V, n)
		}
		if opt.RemoveSelfLoops && e.U == e.V {
			continue
		}
		keys = append(keys, uint64(e.U)<<32|uint64(e.V))
		if opt.Symmetrize && e.U != e.V {
			keys = append(keys, uint64(e.V)<<32|uint64(e.U))
		}
	}
	offsets, edges, _ := hashtable.GroupCSR(keys, nil, n)
	return FromCSR(offsets, edges, opt)
}

// FromCSR wraps existing CSR arrays (offsets len n+1, per-vertex neighbor
// ranges sorted ascending). Only the compression options are honored. The
// arrays are retained; callers must not mutate them afterwards.
func FromCSR(offsets []int64, edges []uint32, opt Options) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: offsets must have at least one element")
	}
	n := len(offsets) - 1
	if offsets[n] != int64(len(edges)) {
		return nil, fmt.Errorf("graph: offsets[n]=%d does not match edge count %d", offsets[n], len(edges))
	}
	g := &Graph{n: n, offsets: offsets}
	if opt.Compress {
		a, err := compress.Build(offsets, edges, opt.BlockSize)
		if err != nil {
			return nil, err
		}
		g.comp = a
	} else {
		g.edges = edges
	}
	return g, nil
}

// Simple reports whether g is a graph FromEdges builds with DefaultOptions:
// uncompressed and unweighted, each row strictly ascending without its own
// vertex, and the reverse of every arc stored.
func (g *Graph) Simple() bool {
	if g.comp != nil || g.weights != nil {
		return false
	}
	var bad atomic.Bool
	par.ForRange(g.n, 256, func(lo, hi int) {
		for u := lo; u < hi && !bad.Load(); u++ {
			row := g.edges[g.offsets[u]:g.offsets[u+1]]
			for i, v := range row {
				if v == uint32(u) || int(v) >= g.n || i > 0 && row[i-1] >= v {
					bad.Store(true)
					return
				}
				if _, ok := slices.BinarySearch(g.edges[g.offsets[v]:g.offsets[v+1]], uint32(u)); !ok {
					bad.Store(true)
					return
				}
			}
		}
	})
	return !bad.Load()
}

// WithEdges returns a new graph over n ≥ g.NumVertices() vertices holding
// g's arcs and both orientations of every edge in add, which must be sorted
// by (U, V) with U < V, without repeats and without edges g already has. g
// must be uncompressed and unweighted and is not modified. Rows no added
// edge touches are copied in bulk and each touched row is merged with its
// added neighbors, so the cost is one copy of the CSR plus the batch; for a
// Simple g the result is the graph FromEdges builds with DefaultOptions from
// g's edges and add.
func (g *Graph) WithEdges(n int, add []Edge) (*Graph, error) {
	if g.comp != nil || g.weights != nil {
		return nil, fmt.Errorf("graph: WithEdges needs an uncompressed, unweighted graph")
	}
	if n < g.n {
		return nil, fmt.Errorf("graph: WithEdges cannot shrink %d vertices to %d", g.n, n)
	}
	keys := make([]uint64, 0, 2*len(add))
	for i, e := range add {
		if e.U >= e.V || int(e.V) >= n || i > 0 && (add[i-1].U > e.U || add[i-1].U == e.U && add[i-1].V >= e.V) {
			return nil, fmt.Errorf("graph: WithEdges needs sorted, distinct edges u < v < %d; got (%d,%d) at %d", n, e.U, e.V, i)
		}
		keys = append(keys, uint64(e.U)<<32|uint64(e.V), uint64(e.V)<<32|uint64(e.U))
	}
	slices.Sort(keys)
	old := func(u int) int64 { return g.offsets[min(u, g.n)] }
	offsets := make([]int64, n+1)
	edges := make([]uint32, len(g.edges)+len(keys))
	// shift counts the arcs added so far and next is the first row not yet
	// placed; place copies the untouched rows next…end-1 and sets the offsets
	// of rows next…end.
	shift, next := int64(0), 0
	place := func(end int) {
		for r := next; r <= end; r++ {
			offsets[r] = old(r) + shift
		}
		copy(edges[old(next)+shift:], g.edges[old(next):old(end)])
	}
	for k := 0; k < len(keys); {
		u := int(keys[k] >> 32)
		place(u)
		row, dst := g.edges[old(u):old(u+1)], edges[old(u)+shift:]
		i, w := 0, 0
		for ; k < len(keys) && int(keys[k]>>32) == u; k++ {
			v := uint32(keys[k])
			for ; i < len(row) && row[i] < v; i++ {
				dst[w] = row[i]
				w++
			}
			if i < len(row) && row[i] == v {
				return nil, fmt.Errorf("graph: WithEdges: arc (%d,%d) is already in the graph", u, v)
			}
			dst[w] = v
			w++
		}
		copy(dst[w:], row[i:])
		shift += int64(w - i)
		next = u + 1
	}
	place(n)
	return FromCSR(offsets, edges, Options{})
}

// NumVertices returns n.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed arcs (2m for a symmetrized
// simple graph with m undirected edges).
func (g *Graph) NumEdges() int64 { return g.offsets[g.n] }

// Volume returns vol(G): the sum of weighted degrees (= NumEdges for
// unweighted graphs).
func (g *Graph) Volume() float64 { return g.TotalWeight() }

// Compressed reports whether adjacency is stored in parallel-byte form.
func (g *Graph) Compressed() bool { return g.comp != nil }

// BlockSize returns the compressed block size, or 0 for uncompressed graphs.
func (g *Graph) BlockSize() int {
	if g.comp == nil {
		return 0
	}
	return g.comp.BlockSize()
}

// Degree returns the out-degree of u.
func (g *Graph) Degree(u uint32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbor returns the i-th neighbor (ascending order) of u.
func (g *Graph) Neighbor(u uint32, i int) uint32 {
	if g.comp != nil {
		return g.comp.Nth(u, i)
	}
	return g.edges[g.offsets[u]+int64(i)]
}

// Neighbors appends the neighbors of u to dst and returns the result. For
// uncompressed graphs, pass nil dst to receive a view of the underlying
// storage without copying.
func (g *Graph) Neighbors(u uint32, dst []uint32) []uint32 {
	if g.comp != nil {
		return g.comp.Neighbors(u, dst)
	}
	seg := g.edges[g.offsets[u]:g.offsets[u+1]]
	if dst == nil {
		return seg
	}
	return append(dst, seg...)
}

// NeighborCursor serves runs of i-th-neighbor lookups against one vertex at
// a time — the access pattern of the batched walker, whose radix grouping
// makes all lookups at a vertex arrive back to back, and of every loop over
// a vertex's adjacency in order (List). On uncompressed graphs a lookup is
// the same slice index Neighbor performs. On compressed graphs a run that
// covers the vertex's blocks decodes the whole list once into the cursor's
// reusable buffer, which the cursor then indexes exactly like a CSR row; a
// sparser run decodes only the blocks it touches (compress.Cursor) instead
// of paying Nth's per-lookup block re-decode. Weighted graphs (never
// compressed) additionally expose the vertex's alias-table row so a run of
// keyed weighted draws resolves without re-slicing per state
// (AliasNeighbor). Keep one cursor per worker; it is not safe for
// concurrent use.
type NeighborCursor struct {
	g     *Graph
	span  []uint32  // current vertex's neighbors, unless lazy
	lazy  bool      // compressed, served block by block through cc
	prob  []float64 // current vertex's alias acceptance row (weighted graphs)
	alias []uint32  // current vertex's alias fallback row (weighted graphs)
	cc    compress.Cursor
}

// NewNeighborCursor returns a cursor over g's adjacency.
func (g *Graph) NewNeighborCursor() NeighborCursor {
	return NeighborCursor{g: g}
}

// Begin positions the cursor at vertex u, expecting roughly k Neighbor
// calls. k only tunes the compressed decode strategy (full-list vs lazy
// per-block); correctness does not depend on it.
func (c *NeighborCursor) Begin(u uint32, k int) {
	if c.g.comp != nil {
		c.cc.Begin(c.g.comp, u, k)
		c.span, c.lazy = c.cc.List()
		return
	}
	lo, hi := c.g.offsets[u], c.g.offsets[u+1]
	c.span = c.g.edges[lo:hi]
	if c.g.alias != nil {
		c.prob = c.g.alias.prob[lo:hi]
		c.alias = c.g.alias.alias[lo:hi]
	}
}

// Neighbor returns the i-th neighbor of the vertex passed to Begin.
func (c *NeighborCursor) Neighbor(i int) uint32 {
	if c.lazy {
		return c.cc.Nth(i)
	}
	return c.span[i]
}

// List positions the cursor at u and returns all of u's neighbors in
// ascending order: a view of the CSR row, or on compressed graphs the list
// decoded into the cursor's buffer. The slice is valid until the next Begin
// or List and must not be modified.
func (c *NeighborCursor) List(u uint32) []uint32 {
	c.Begin(u, c.g.Degree(u))
	return c.span
}

// AliasNeighbor draws a weight-proportional neighbor of the vertex passed
// to Begin from a single 64-bit keyed value (see Graph.AliasNeighbor for
// the slot/coin layout). Only valid on weighted graphs.
func (c *NeighborCursor) AliasNeighbor(draw uint64) uint32 {
	return c.span[aliasPick(c.prob, c.alias, draw)]
}

// ToCompressed returns a graph with the same structure whose adjacency is
// stored in the Ligra+ parallel-byte format, sharing this graph's offsets
// array (the uncompressed edge array is not retained, so the caller
// dropping the original graph drops the CSR footprint with it). Returns g
// unchanged if it is already compressed. blockSize <= 0 selects the
// default. Weighted graphs are not compressible.
func (g *Graph) ToCompressed(blockSize int) (*Graph, error) {
	if g.comp != nil {
		return g, nil
	}
	if g.weights != nil {
		return nil, fmt.Errorf("graph: weighted graphs do not support parallel-byte compression")
	}
	a, err := compress.Build(g.offsets, g.edges, blockSize)
	if err != nil {
		return nil, err
	}
	return &Graph{n: g.n, offsets: g.offsets, comp: a}, nil
}

// MapEdges calls fn(u, v) for every directed arc in parallel, partitioned by
// source vertex, each vertex's arcs in ascending order. This is the GBBS
// MapEdges primitive Algorithm 2 is built on.
func (g *Graph) MapEdges(fn func(u, v uint32)) {
	par.ForRange(g.n, 512, func(lo, hi int) {
		nc := g.NewNeighborCursor()
		for u := lo; u < hi; u++ {
			for _, v := range nc.List(uint32(u)) {
				fn(uint32(u), v)
			}
		}
	})
}

// RandomNeighbor returns a random neighbor of u, or (0, false) if u is
// isolated. Unweighted graphs draw uniformly (one random 32-bit draw
// reduced modulo the degree, exactly as described in §4.2); weighted graphs
// draw proportionally to edge weight via the alias table, still O(1).
func (g *Graph) RandomNeighbor(u uint32, r *rng.Source) (uint32, bool) {
	if g.weights != nil {
		return g.weightedRandomNeighbor(u, r)
	}
	d := g.Degree(u)
	if d == 0 {
		return 0, false
	}
	return g.Neighbor(u, r.Intn(d)), true
}

// Walk performs a random walk of the given number of steps starting at u and
// returns the final vertex. If the walk reaches an isolated vertex it stays
// there (symmetrized graphs never hit this unless u itself is isolated).
func (g *Graph) Walk(u uint32, steps int, r *rng.Source) uint32 {
	if g.weights == nil && g.comp == nil {
		// RandomNeighbor's draws on the raw CSR, its arrays held in locals.
		offsets, edges := g.offsets, g.edges
		for s := 0; s < steps; s++ {
			lo := offsets[u]
			d := int(offsets[u+1] - lo)
			if d == 0 {
				return u
			}
			u = edges[lo+int64(r.Intn(d))]
		}
		return u
	}
	for s := 0; s < steps; s++ {
		v, ok := g.RandomNeighbor(u, r)
		if !ok {
			return u
		}
		u = v
	}
	return u
}

// Degrees returns a freshly allocated slice of all vertex degrees.
func (g *Graph) Degrees() []float64 {
	d := make([]float64, g.n)
	par.For(g.n, 4096, func(i int) {
		d[i] = float64(g.offsets[i+1] - g.offsets[i])
	})
	return d
}

// SizeBytes estimates in-memory adjacency size: CSR arrays, or the
// compressed payload when compression is on.
func (g *Graph) SizeBytes() int64 {
	if g.comp != nil {
		return g.comp.SizeBytes()
	}
	size := int64(len(g.offsets))*8 + int64(len(g.edges))*4
	if g.weights != nil {
		size += int64(len(g.weights)) * 8 // weights plus alias tables
		size += int64(len(g.alias.prob))*8 + int64(len(g.alias.alias))*4
	}
	return size
}

// Validate performs internal consistency checks; useful in tests and after
// loading untrusted inputs — in particular an mmap'd LNGC file, whose
// compressed payload the fast decode paths otherwise trust. Adjacency is
// verified by sequential decode (one O(degree) pass per vertex); the old
// implementation fetched each neighbor through Neighbor(u, i), which on
// compressed graphs re-decoded the block prefix per index — O(degree ×
// blockSize) per vertex, quadratic in degree for hubs. Compressed graphs
// use the bounds-checked decoder, so corrupt or truncated encodings return
// errors instead of panicking, and a nil result certifies the unchecked
// hot paths (Decode, Nth, NeighborCursor) are in-bounds.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	for u := 0; u < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", u)
		}
	}
	if g.comp != nil {
		if cn := g.comp.NumVertices(); cn != g.n {
			return fmt.Errorf("graph: compressed adjacency has %d vertices, offsets say %d", cn, g.n)
		}
	} else if int64(len(g.edges)) != g.offsets[g.n] {
		return fmt.Errorf("graph: %d edges stored but offsets end at %d", len(g.edges), g.offsets[g.n])
	}
	for u := 0; u < g.n; u++ {
		prev := int64(-1)
		bad := ""
		check := func(v uint32) {
			if bad != "" {
				return
			}
			if int(v) >= g.n {
				bad = fmt.Sprintf("graph: vertex %d has neighbor %d >= n", u, v)
			} else if int64(v) < prev {
				bad = fmt.Sprintf("graph: vertex %d neighbors not sorted", u)
			}
			prev = int64(v)
		}
		if g.comp != nil {
			if cd := int64(g.comp.Degree(uint32(u))); cd != g.offsets[u+1]-g.offsets[u] {
				return fmt.Errorf("graph: vertex %d compressed degree %d, offsets say %d", u, cd, g.offsets[u+1]-g.offsets[u])
			}
			if err := g.comp.DecodeChecked(uint32(u), check); err != nil {
				return err
			}
		} else {
			for _, v := range g.edges[g.offsets[u]:g.offsets[u+1]] {
				check(v)
			}
		}
		if bad != "" {
			return fmt.Errorf("%s", bad)
		}
	}
	return nil
}

package compress

import (
	"encoding/binary"
	"slices"
)

// Block-granular decoding for the batched walker (paper §4.2). The wave
// sampler radix-groups walk states by current vertex between steps, so all
// lookups against one vertex's adjacency arrive back to back. A Cursor
// exploits that: it decodes each block the group actually touches once into
// a caller-owned buffer and serves every subsequent lookup by indexing,
// replacing the per-lookup block re-decode Nth pays (O(blockSize) varint
// work per walk step).

// NumBlocks returns the number of encoded blocks of vertex u (0 for
// isolated vertices).
func (a *Adjacency) NumBlocks(u uint32) int {
	return (int(a.degrees[u]) + a.blockSize - 1) / a.blockSize
}

// blockStart returns the position of the given block inside the vertex
// region (data), whose block table occupies the first tab bytes.
func blockStart(data []byte, tab, block int) int {
	if block == 0 {
		return tab
	}
	return tab + int(binary.LittleEndian.Uint32(data[4*(block-1):]))
}

// DecodeBlock appends the neighbors of vertex u stored in the given block
// (full blocks hold BlockSize neighbors; the last may be short) to dst and
// returns the extended slice. Like Neighbors, it trusts the encoding; use the
// checked path for untrusted bytes. Panics if block is out of range.
func (a *Adjacency) DecodeBlock(u uint32, block int, dst []uint32) []uint32 {
	data, tab, d, ok := a.region(u)
	if !ok || block < 0 || block >= a.NumBlocks(u) {
		panic("compress: block index out of range")
	}
	cnt := min(a.blockSize, d-block*a.blockSize)
	w := len(dst)
	dst = slices.Grow(dst, cnt)[:w+cnt]
	decodeBlock(data, blockStart(data, tab, block), u, dst[w:])
	return dst
}

// Cursor serves repeated Nth lookups against one vertex at a time, decoding
// each needed block at most once per Begin. It owns a reusable buffer, so a
// long-lived per-worker Cursor performs no steady-state allocation. The
// zero value is ready to use. Not safe for concurrent use.
type Cursor struct {
	a     *Adjacency
	u     uint32
	block int  // cached block index in lazy mode; -1 = none
	lazy  bool // buf caches one block on demand instead of the full list
	buf   []uint32
}

// Begin prepares the cursor to serve roughly k Nth lookups for vertex u.
// When k covers the vertex's blocks (k >= NumBlocks), the whole adjacency is
// decoded up front — every block is needed in expectation and decoding
// sequentially is cheaper than per-block table hops. For sparser groups the
// cursor stays lazy, decoding only the blocks lookups actually land in.
func (c *Cursor) Begin(a *Adjacency, u uint32, k int) {
	c.a, c.u, c.block = a, u, -1
	c.lazy = k < a.NumBlocks(u)
	if !c.lazy {
		c.buf = a.Neighbors(u, c.buf[:0])
	}
}

// List returns the cursor's buffer and whether it is lazy. Unless lazy, the
// buffer is the vertex's whole neighbor list, which the caller may index
// directly until the next Begin.
func (c *Cursor) List() (list []uint32, lazy bool) { return c.buf, c.lazy }

// Nth returns the i-th neighbor (0-based) of the vertex passed to Begin.
// Panics if i is out of range, like Adjacency.Nth.
func (c *Cursor) Nth(i int) uint32 {
	if !c.lazy {
		return c.buf[i]
	}
	b := i / c.a.blockSize
	if b != c.block {
		c.buf = c.a.DecodeBlock(c.u, b, c.buf[:0])
		c.block = b
	}
	return c.buf[i-b*c.a.blockSize]
}

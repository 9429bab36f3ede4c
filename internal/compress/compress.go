// Package compress implements the Ligra+ parallel-byte adjacency format used
// by GBBS and adopted by LightNE for storing very large graphs in memory
// (paper §4.1, "Compression").
//
// A vertex's sorted neighbor list is split into blocks of BlockSize
// neighbors. Within a block, the first neighbor is difference-encoded
// against the source vertex using a signed (zigzag) varint; subsequent
// neighbors are difference-encoded against their predecessor using unsigned
// varints. Because every block is decodable independently given the source,
// high-degree vertices decode in parallel, and fetching the i-th neighbor
// only requires decoding one block — the property LightNE's random walks
// depend on. Per-vertex data is laid out as:
//
//	[block offset table: (numBlocks-1) × uint32] [block 0][block 1]...
//
// where each offset is relative to the end of the offset table (block 0
// always starts at relative offset 0, so it is omitted).
package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"lightne/internal/par"
)

// DefaultBlockSize is the neighbors-per-block setting. The paper selected 64
// after measuring the trade-off between compressed size and the latency of
// fetching an arbitrary incident edge (§4.2).
const DefaultBlockSize = 64

// Adjacency is a compressed adjacency structure for an n-vertex graph.
type Adjacency struct {
	degrees    []uint32
	vtxOffsets []uint64 // len n+1; byte offset of each vertex's region in data
	data       []byte
	blockSize  int
}

// zigzag encodes a signed difference as an unsigned value.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintLen returns the encoded length in bytes of v as a LEB128 varint.
func varintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// putVarint appends v to dst in LEB128 form and returns the extended slice
// position (number of bytes written).
func putVarint(dst []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		dst[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	dst[i] = byte(v)
	return i + 1
}

// getVarint decodes a LEB128 varint starting at data[pos] and returns the
// value and the new position.
func getVarint(data []byte, pos int) (uint64, int) {
	var v uint64
	var shift uint
	for {
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, pos
		}
		shift += 7
	}
}

// encodedSize returns the number of bytes vertex u's sorted neighbor list
// occupies under the format, including its block offset table.
func encodedSize(u uint32, neighbors []uint32, blockSize int) int {
	d := len(neighbors)
	if d == 0 {
		return 0
	}
	numBlocks := (d + blockSize - 1) / blockSize
	size := 4 * (numBlocks - 1) // offset table
	for b := 0; b < numBlocks; b++ {
		lo := b * blockSize
		hi := min(lo+blockSize, d)
		size += varintLen(zigzag(int64(neighbors[lo]) - int64(u)))
		for i := lo + 1; i < hi; i++ {
			size += varintLen(uint64(neighbors[i] - neighbors[i-1]))
		}
	}
	return size
}

// encodeInto writes vertex u's neighbor list into dst (which must have
// exactly encodedSize bytes) and returns the bytes written.
func encodeInto(dst []byte, u uint32, neighbors []uint32, blockSize int) int {
	d := len(neighbors)
	if d == 0 {
		return 0
	}
	numBlocks := (d + blockSize - 1) / blockSize
	tab := 4 * (numBlocks - 1)
	pos := tab
	for b := 0; b < numBlocks; b++ {
		if b > 0 {
			binary.LittleEndian.PutUint32(dst[4*(b-1):], uint32(pos-tab))
		}
		lo := b * blockSize
		hi := min(lo+blockSize, d)
		pos += putVarint(dst[pos:], zigzag(int64(neighbors[lo])-int64(u)))
		for i := lo + 1; i < hi; i++ {
			pos += putVarint(dst[pos:], uint64(neighbors[i]-neighbors[i-1]))
		}
	}
	return pos
}

// Build compresses a CSR graph given by offsets (len n+1) and edges, where
// each vertex's neighbor slice edges[offsets[u]:offsets[u+1]] must be sorted
// ascending. blockSize <= 0 selects DefaultBlockSize. Encoding runs in
// parallel over vertices (a size pass, a prefix scan, then an encode pass).
func Build(offsets []int64, edges []uint32, blockSize int) (*Adjacency, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	n := len(offsets) - 1
	if n < 0 {
		return nil, fmt.Errorf("compress: offsets must have at least one element")
	}
	a := &Adjacency{
		degrees:    make([]uint32, n),
		vtxOffsets: make([]uint64, n+1),
		blockSize:  blockSize,
	}
	sizes := make([]int64, n)
	// badVertex is a lock-free error slot: concurrent workers race to CAS the
	// first unsorted vertex they see (stored as u+1 so zero means "none"), and
	// every worker early-outs once any failure is published. A plain shared
	// error variable here was a data race when two chunks failed at once.
	var badVertex atomic.Int64
	par.For(n, 256, func(u int) {
		if badVertex.Load() != 0 {
			return
		}
		lo, hi := offsets[u], offsets[u+1]
		nbrs := edges[lo:hi]
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] < nbrs[i-1] {
				badVertex.CompareAndSwap(0, int64(u)+1)
				return
			}
		}
		a.degrees[u] = uint32(hi - lo)
		sizes[u] = int64(encodedSize(uint32(u), nbrs, blockSize))
	})
	if bad := badVertex.Load(); bad != 0 {
		return nil, fmt.Errorf("compress: neighbors of vertex %d not sorted", bad-1)
	}
	total := par.ExclusiveScan(sizes)
	for u := 0; u < n; u++ {
		a.vtxOffsets[u] = uint64(sizes[u])
	}
	a.vtxOffsets[n] = uint64(total)
	a.data = make([]byte, total)
	par.For(n, 256, func(u int) {
		lo, hi := offsets[u], offsets[u+1]
		start, end := a.vtxOffsets[u], a.vtxOffsets[u+1]
		encodeInto(a.data[start:end], uint32(u), edges[lo:hi], blockSize)
	})
	return a, nil
}

// NumVertices returns the number of vertices.
func (a *Adjacency) NumVertices() int { return len(a.degrees) }

// Degree returns the out-degree of u.
func (a *Adjacency) Degree(u uint32) uint32 { return a.degrees[u] }

// SizeBytes returns the total compressed payload size (neighbor data plus
// per-vertex tables), used for compression-ratio reporting.
func (a *Adjacency) SizeBytes() int64 {
	return int64(len(a.data)) + int64(len(a.vtxOffsets))*8 + int64(len(a.degrees))*4
}

// BlockSize returns the configured neighbors-per-block.
func (a *Adjacency) BlockSize() int { return a.blockSize }

// region returns the encoded bytes and block-table length for vertex u,
// along with its degree. ok is false for degree-0 vertices.
func (a *Adjacency) region(u uint32) (data []byte, tab int, d int, ok bool) {
	d = int(a.degrees[u])
	if d == 0 {
		return nil, 0, 0, false
	}
	tab = 4 * (a.NumBlocks(u) - 1)
	return a.data[a.vtxOffsets[u]:a.vtxOffsets[u+1]], tab, d, true
}

// Decode calls fn for every neighbor of u in ascending order.
func (a *Adjacency) Decode(u uint32, fn func(v uint32)) {
	var buf [4 * DefaultBlockSize]uint32 // longer lists decode to the heap
	for _, v := range a.Neighbors(u, buf[:0]) {
		fn(v)
	}
}

// Nth returns the i-th neighbor (0-based, ascending order) of u. It decodes
// only the block containing index i — the operation LightNE's random-walk
// step relies on (paper §4.2). Panics if i is out of range.
func (a *Adjacency) Nth(u uint32, i int) uint32 {
	data, tab, d, ok := a.region(u)
	if !ok || i < 0 || i >= d {
		panic(fmt.Sprintf("compress: neighbor index %d out of range for vertex %d (degree %d)", i, u, d))
	}
	var buf [DefaultBlockSize]uint32
	pos := decodeBlock(data, blockStart(data, tab, i/a.blockSize), u, buf[:1])
	v := buf[0]
	for k := i % a.blockSize; k > 0; k -= len(buf) {
		pos, v = decodeGaps(data, pos, v, buf[:min(k, len(buf))])
	}
	return v
}

// Neighbors appends u's neighbors to dst and returns the extended slice.
func (a *Adjacency) Neighbors(u uint32, dst []uint32) []uint32 {
	data, tab, d, ok := a.region(u)
	if !ok {
		return dst
	}
	w := len(dst)
	dst = slices.Grow(dst, d)[:w+d]
	for pos, lo := tab, 0; lo < d; lo += a.blockSize {
		pos = decodeBlock(data, pos, u, dst[w+lo:w+min(lo+a.blockSize, d)])
	}
	return dst
}

// decodeBlock writes the first len(dst) >= 1 neighbors of u's block at
// data[pos] into dst and returns the position after them: with decodeGaps,
// the one decoder of every unchecked read path.
func decodeBlock(data []byte, pos int, u uint32, dst []uint32) int {
	raw, pos := getVarint(data, pos)
	dst[0] = uint32(int64(u) + unzigzag(raw))
	pos, _ = decodeGaps(data, pos, dst[0], dst[1:])
	return pos
}

// decodeGaps adds the len(dst) gap varints at data[pos] to v in turn, writes
// each running sum to dst, and returns the next position and the last sum.
// One- and two-byte gaps (nearly all in a sorted list) decode inline; longer
// ones, and a second byte past len(data), go to getVarint.
func decodeGaps(data []byte, pos int, v uint32, dst []uint32) (int, uint32) {
	for i := range dst {
		b := data[pos]
		switch {
		case b < 0x80:
			v += uint32(b)
			pos++
		case pos+1 < len(data) && data[pos+1] < 0x80:
			v += uint32(b&0x7f) | uint32(data[pos+1])<<7
			pos += 2
		default:
			var g uint64
			g, pos = getVarint(data, pos)
			v += uint32(g)
		}
		dst[i] = v
	}
	return pos, v
}

package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lightne/internal/compress"
)

// Binary graph formats.
//
// "LNG1" is the plain CSR format: a little-endian header (magic, n, arcs),
// the n+1 offsets as int64, then the arcs as uint32. Loading a billion-arc
// graph from this format is memory-bandwidth bound instead of parse bound —
// the same reason GBBS ships binary graph loaders.
//
// "LNGC" is the compressed counterpart: the Ligra+ parallel-byte adjacency
// (compress.Adjacency) serialized verbatim — degrees, per-vertex byte
// offsets, and the encoded payload — alongside the CSR degree-prefix
// offsets, each section padded to a page boundary. Because the sections are
// the in-memory arrays bit for bit, a reader never re-encodes (ReadBinary)
// and Mmap maps them in place: cold start on a pre-compressed graph parses
// a fixed-size header and never materializes the uncompressed edge array.
//
// LNGC layout (all little-endian):
//
//	[0:4)   magic "LNGC"
//	[4:8)   format version (1)
//	[8:12)  endianness probe 0x01020304 (Mmap refuses foreign byte order)
//	[12:16) compression block size
//	[16:24) n
//	[24:32) arcs
//	[32:96) section table: 4 × {byte offset u64, byte length u64} for the
//	        CSR offsets (int64[n+1]), degrees (uint32[n]), vertex byte
//	        offsets (uint64[n+1]) and payload (byte[...]) sections
//
// plus zero padding so every section starts lngcAlign-aligned.

const (
	// graphMagic identifies the plain binary CSR format ("LNG1").
	graphMagic = 0x31474e4c
	// lngcMagic identifies the compressed format ("LNGC").
	lngcMagic = 0x43474e4c
	// lngcVersion is the current LNGC format version.
	lngcVersion = 1
	// lngcProbe is stored in the header and re-read through the same
	// unsafe cast Mmap uses for the sections, so a byte-order mismatch
	// between writer and mapper fails loudly instead of corrupting silently.
	lngcProbe = 0x01020304
	// lngcAlign is the section alignment: one page, so mmap'd sections are
	// safely castable to any element type and fault in page-granular.
	lngcAlign = 4096
	// lngcHeaderLen is the fixed header size (before padding).
	lngcHeaderLen = 96
)

// lngcSection locates one section inside an LNGC file.
type lngcSection struct {
	off, len uint64
}

// lngcHeader is the parsed fixed-size LNGC header.
type lngcHeader struct {
	version   uint32
	blockSize int
	n         int
	arcs      int64
	// offsets, degrees, vtxOffsets, data
	sections [4]lngcSection
}

// WriteBinary serializes the graph: compressed graphs write the LNGC format
// (adjacency sections verbatim, mmap-able), uncompressed graphs write plain
// LNG1 CSR. Weighted graphs are rejected: neither format carries a weights
// section yet, and silently writing the structure-only CSR would drop the
// weights on the floor — a reload would embed a different graph.
func (g *Graph) WriteBinary(w io.Writer) error {
	if g.weights != nil {
		return fmt.Errorf("graph: WriteBinary does not support weighted graphs (LNG1/LNGC carry no weights section; writing would silently drop them)")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if g.comp != nil {
		if err := g.writeLNGC(bw); err != nil {
			return err
		}
		return bw.Flush()
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], graphMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, off := range g.offsets {
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, v := range g.edges {
		binary.LittleEndian.PutUint32(buf[:4], v)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// alignUp rounds x up to the next lngcAlign boundary.
func alignUp(x uint64) uint64 {
	return (x + lngcAlign - 1) &^ uint64(lngcAlign-1)
}

// writeLNGC lays out the header and the four page-aligned sections.
func (g *Graph) writeLNGC(bw *bufio.Writer) error {
	degrees, vtxOffsets, data := g.comp.Sections()
	var secs [4]lngcSection
	lens := [4]uint64{
		uint64(len(g.offsets)) * 8,
		uint64(len(degrees)) * 4,
		uint64(len(vtxOffsets)) * 8,
		uint64(len(data)),
	}
	pos := alignUp(lngcHeaderLen)
	for i, l := range lens {
		secs[i] = lngcSection{off: pos, len: l}
		pos = alignUp(pos + l)
	}

	var hdr [lngcHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], lngcMagic)
	binary.LittleEndian.PutUint32(hdr[4:], lngcVersion)
	binary.LittleEndian.PutUint32(hdr[8:], lngcProbe)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(g.comp.BlockSize()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.NumEdges()))
	for i, s := range secs {
		binary.LittleEndian.PutUint64(hdr[32+16*i:], s.off)
		binary.LittleEndian.PutUint64(hdr[40+16*i:], s.len)
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	written := uint64(lngcHeaderLen)
	pad := func(to uint64) error {
		for written < to {
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			written++
		}
		return nil
	}

	var buf [8]byte
	if err := pad(secs[0].off); err != nil {
		return err
	}
	for _, off := range g.offsets {
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	written += lens[0]
	if err := pad(secs[1].off); err != nil {
		return err
	}
	for _, d := range degrees {
		binary.LittleEndian.PutUint32(buf[:4], d)
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	written += lens[1]
	if err := pad(secs[2].off); err != nil {
		return err
	}
	for _, off := range vtxOffsets {
		binary.LittleEndian.PutUint64(buf[:], off)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	written += lens[2]
	if err := pad(secs[3].off); err != nil {
		return err
	}
	if _, err := bw.Write(data); err != nil {
		return err
	}
	return nil
}

// parseLNGCHeader validates the fixed header fields shared by the streaming
// reader and Mmap. It checks internal consistency only — section bounds
// against the actual file size are the caller's job.
func parseLNGCHeader(hdr []byte) (lngcHeader, error) {
	var h lngcHeader
	if len(hdr) < lngcHeaderLen {
		return h, fmt.Errorf("graph: LNGC header truncated (%d bytes)", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != lngcMagic {
		return h, fmt.Errorf("graph: not an LNGC graph file")
	}
	h.version = binary.LittleEndian.Uint32(hdr[4:])
	if h.version != lngcVersion {
		return h, fmt.Errorf("graph: unsupported LNGC version %d (supported: %d)", h.version, lngcVersion)
	}
	if probe := binary.LittleEndian.Uint32(hdr[8:]); probe != lngcProbe {
		return h, fmt.Errorf("graph: LNGC endianness probe mismatch (got %#x)", probe)
	}
	h.blockSize = int(binary.LittleEndian.Uint32(hdr[12:]))
	n := binary.LittleEndian.Uint64(hdr[16:])
	arcs := binary.LittleEndian.Uint64(hdr[24:])
	if h.blockSize <= 0 || n > 1<<40 || arcs > 1<<48 {
		return h, fmt.Errorf("graph: implausible LNGC header (n=%d, arcs=%d, blockSize=%d)", n, arcs, h.blockSize)
	}
	h.n = int(n)
	h.arcs = int64(arcs)
	for i := range h.sections {
		h.sections[i].off = binary.LittleEndian.Uint64(hdr[32+16*i:])
		h.sections[i].len = binary.LittleEndian.Uint64(hdr[40+16*i:])
		if h.sections[i].off > 1<<60 || h.sections[i].len > 1<<60 {
			return h, fmt.Errorf("graph: implausible LNGC section %d (off=%d, len=%d)", i, h.sections[i].off, h.sections[i].len)
		}
		if h.sections[i].off%lngcAlign != 0 {
			return h, fmt.Errorf("graph: LNGC section %d not page-aligned (offset %d)", i, h.sections[i].off)
		}
		if i > 0 && h.sections[i].off < h.sections[i-1].off+h.sections[i-1].len {
			return h, fmt.Errorf("graph: LNGC sections out of order")
		}
	}
	if h.sections[0].off < lngcHeaderLen {
		return h, fmt.Errorf("graph: LNGC first section overlaps the header")
	}
	if h.sections[0].len != uint64(h.n+1)*8 ||
		h.sections[1].len != uint64(h.n)*4 ||
		h.sections[2].len != uint64(h.n+1)*8 {
		return h, fmt.Errorf("graph: LNGC section lengths inconsistent with n=%d", h.n)
	}
	return h, nil
}

// ReadBinary loads a graph written by WriteBinary, detecting the format
// from the magic. LNG1 loads the CSR structure as stored (FromCSR); LNGC is
// already compressed and no CSR edge array is ever allocated.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("graph: reading binary magic: %w", err)
	}
	if binary.LittleEndian.Uint32(magic) == lngcMagic {
		return readLNGC(br)
	}
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != graphMagic {
		return nil, fmt.Errorf("graph: not an LNG1 graph file")
	}
	n := int(binary.LittleEndian.Uint64(hdr[4:]))
	arcs := int64(binary.LittleEndian.Uint64(hdr[12:]))
	if n < 0 || arcs < 0 {
		return nil, fmt.Errorf("graph: implausible binary header (n=%d, arcs=%d)", n, arcs)
	}
	// Grow the arrays as data actually arrives rather than trusting the
	// header's sizes, so a corrupt header cannot force a huge allocation.
	var buf [8]byte
	offsets := make([]int64, 0, minInt64(int64(n)+1, 1<<16))
	for i := 0; i <= n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: truncated offsets: %w", err)
		}
		offsets = append(offsets, int64(binary.LittleEndian.Uint64(buf[:])))
	}
	if offsets[n] != arcs {
		return nil, fmt.Errorf("graph: offsets end at %d but header declares %d arcs", offsets[n], arcs)
	}
	edges := make([]uint32, 0, minInt64(arcs, 1<<18))
	for i := int64(0); i < arcs; i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("graph: truncated edges: %w", err)
		}
		edges = append(edges, binary.LittleEndian.Uint32(buf[:4]))
	}
	return FromCSR(offsets, edges)
}

// readLNGC streams an LNGC file into freshly allocated section arrays —
// the portable fallback when Mmap is unavailable (reading from a pipe, a
// network stream, or a non-unix platform). Still never builds a CSR edge
// array: the payload loads verbatim.
func readLNGC(br *bufio.Reader) (*Graph, error) {
	var hdr [lngcHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading LNGC header: %w", err)
	}
	h, err := parseLNGCHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	pos := uint64(lngcHeaderLen)
	skipTo := func(off uint64) error {
		if off < pos {
			return fmt.Errorf("graph: LNGC section at %d overlaps previous data", off)
		}
		if _, err := io.CopyN(io.Discard, br, int64(off-pos)); err != nil {
			return fmt.Errorf("graph: skipping LNGC padding: %w", err)
		}
		pos = off
		return nil
	}

	var buf [8]byte
	if err := skipTo(h.sections[0].off); err != nil {
		return nil, err
	}
	offsets := make([]int64, 0, minInt64(int64(h.n)+1, 1<<16))
	for i := 0; i <= h.n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: truncated LNGC offsets: %w", err)
		}
		offsets = append(offsets, int64(binary.LittleEndian.Uint64(buf[:])))
	}
	pos += h.sections[0].len
	if offsets[h.n] != h.arcs {
		return nil, fmt.Errorf("graph: LNGC offsets end at %d but header declares %d arcs", offsets[h.n], h.arcs)
	}

	if err := skipTo(h.sections[1].off); err != nil {
		return nil, err
	}
	degrees := make([]uint32, 0, minInt64(int64(h.n), 1<<17))
	for i := 0; i < h.n; i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("graph: truncated LNGC degrees: %w", err)
		}
		degrees = append(degrees, binary.LittleEndian.Uint32(buf[:4]))
	}
	pos += h.sections[1].len

	if err := skipTo(h.sections[2].off); err != nil {
		return nil, err
	}
	vtxOffsets := make([]uint64, 0, minInt64(int64(h.n)+1, 1<<16))
	for i := 0; i <= h.n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("graph: truncated LNGC vertex offsets: %w", err)
		}
		vtxOffsets = append(vtxOffsets, binary.LittleEndian.Uint64(buf[:]))
	}
	pos += h.sections[2].len

	if err := skipTo(h.sections[3].off); err != nil {
		return nil, err
	}
	data := make([]byte, 0, minInt64(int64(h.sections[3].len), 1<<20))
	remaining := h.sections[3].len
	chunk := make([]byte, 1<<20)
	for remaining > 0 {
		c := uint64(len(chunk))
		if c > remaining {
			c = remaining
		}
		if _, err := io.ReadFull(br, chunk[:c]); err != nil {
			return nil, fmt.Errorf("graph: truncated LNGC payload: %w", err)
		}
		data = append(data, chunk[:c]...)
		remaining -= c
	}

	return assembleLNGC(h, offsets, degrees, vtxOffsets, data)
}

// assembleLNGC builds the Graph around loaded (or mapped) LNGC sections.
func assembleLNGC(h lngcHeader, offsets []int64, degrees []uint32, vtxOffsets []uint64, data []byte) (*Graph, error) {
	a, err := compress.FromSections(degrees, vtxOffsets, data, h.blockSize)
	if err != nil {
		return nil, err
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: LNGC offsets start at %d, want 0", offsets[0])
	}
	if offsets[h.n] != h.arcs {
		return nil, fmt.Errorf("graph: LNGC offsets end at %d but header declares %d arcs", offsets[h.n], h.arcs)
	}
	return &Graph{n: h.n, offsets: offsets, comp: a}, nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

package compress

import "fmt"

// Checked decoding for untrusted bytes. The hot-path decoders (Neighbors, Nth,
// DecodeBlock) trust the encoding: on truncated or corrupt input they fail
// with a bare index-out-of-range panic, which is fine for adjacency this
// process built but not for bytes mmap'd from a file. The *Checked variants
// below bound every read and return errors instead, and are what
// graph.Validate and the fuzz harness drive over loaded graphs.

// maxVarintBytes caps a LEB128 varint at the ten bytes a uint64 can need; a
// longer run of continuation bits is corrupt, not just slow.
const maxVarintBytes = 10

// getVarintChecked decodes a varint with bounds checking.
func getVarintChecked(data []byte, pos int) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if pos >= len(data) {
			return 0, 0, fmt.Errorf("compress: varint truncated at byte %d", pos)
		}
		if i == maxVarintBytes {
			return 0, 0, fmt.Errorf("compress: varint longer than %d bytes at byte %d", maxVarintBytes, pos-i)
		}
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, pos, nil
		}
		shift += 7
	}
}

// regionChecked is region with the slicing bounds validated, so corrupt
// vertex offsets surface as errors rather than slice panics.
func (a *Adjacency) regionChecked(u uint32) (data []byte, tab, d int, err error) {
	if int(u) >= len(a.degrees) {
		return nil, 0, 0, fmt.Errorf("compress: vertex %d out of range (n=%d)", u, len(a.degrees))
	}
	d = int(a.degrees[u])
	if d == 0 {
		return nil, 0, 0, nil
	}
	start, end := a.vtxOffsets[u], a.vtxOffsets[u+1]
	if start > end || end > uint64(len(a.data)) {
		return nil, 0, 0, fmt.Errorf("compress: vertex %d region [%d,%d) exceeds %d data bytes", u, start, end, len(a.data))
	}
	numBlocks := (d + a.blockSize - 1) / a.blockSize
	tab = 4 * (numBlocks - 1)
	data = a.data[start:end]
	if tab > len(data) {
		return nil, 0, 0, fmt.Errorf("compress: vertex %d block table (%d bytes) exceeds its %d-byte region", u, tab, len(data))
	}
	return data, tab, d, nil
}

// DecodeChecked calls fn for every neighbor of u in encoding order,
// validating every read: region bounds, varint bounds and length, block
// boundaries against the block offset table, and that the region holds
// exactly the declared degree with no trailing bytes. A nil error therefore
// certifies that the unchecked Decode, Nth and DecodeBlock paths cannot
// read out of bounds for this vertex.
func (a *Adjacency) DecodeChecked(u uint32, fn func(v uint32)) error {
	data, tab, d, err := a.regionChecked(u)
	if err != nil || d == 0 {
		return err
	}
	pos := tab
	remaining := d
	block := 0
	for remaining > 0 {
		// Sequential decoding must land exactly where the offset table says
		// the block starts, or Nth's table-hopping would diverge.
		if want := blockStartChecked(data, tab, block); want < 0 {
			return fmt.Errorf("compress: vertex %d block %d offset entry out of table", u, block)
		} else if pos != want {
			return fmt.Errorf("compress: vertex %d block %d starts at %d but table says %d", u, block, pos, want)
		}
		cnt := a.blockSize
		if cnt > remaining {
			cnt = remaining
		}
		raw, p, err := getVarintChecked(data, pos)
		if err != nil {
			return fmt.Errorf("compress: vertex %d block %d: %w", u, block, err)
		}
		pos = p
		v := uint32(int64(u) + unzigzag(raw))
		fn(v)
		for i := 1; i < cnt; i++ {
			diff, p, err := getVarintChecked(data, pos)
			if err != nil {
				return fmt.Errorf("compress: vertex %d block %d: %w", u, block, err)
			}
			pos = p
			v += uint32(diff)
			fn(v)
		}
		remaining -= cnt
		block++
	}
	if pos != len(data) {
		return fmt.Errorf("compress: vertex %d has %d trailing bytes after its last block", u, len(data)-pos)
	}
	return nil
}

// blockStartChecked is blockStart with the table read bounds-checked;
// returns -1 when the table entry itself is out of range. (tab <= len(data)
// is established by regionChecked, so entries before block are readable.)
func blockStartChecked(data []byte, tab, block int) int {
	if block == 0 {
		return tab
	}
	if 4*block > tab {
		return -1
	}
	return blockStart(data, tab, block)
}

// NthChecked is Nth with every read bounded: out-of-range indices, corrupt
// block tables and truncated varints return errors instead of panicking.
func (a *Adjacency) NthChecked(u uint32, i int) (uint32, error) {
	data, tab, d, err := a.regionChecked(u)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= d {
		return 0, fmt.Errorf("compress: neighbor index %d out of range for vertex %d (degree %d)", i, u, d)
	}
	block := i / a.blockSize
	pos := blockStartChecked(data, tab, block)
	if pos < 0 {
		return 0, fmt.Errorf("compress: vertex %d block %d offset entry out of table", u, block)
	}
	if pos > len(data) {
		return 0, fmt.Errorf("compress: vertex %d block %d offset %d exceeds its %d-byte region", u, block, pos, len(data))
	}
	raw, p, err := getVarintChecked(data, pos)
	if err != nil {
		return 0, fmt.Errorf("compress: vertex %d block %d: %w", u, block, err)
	}
	pos = p
	v := uint32(int64(u) + unzigzag(raw))
	for k := block*a.blockSize + 1; k <= i; k++ {
		diff, p, err := getVarintChecked(data, pos)
		if err != nil {
			return 0, fmt.Errorf("compress: vertex %d block %d: %w", u, block, err)
		}
		pos = p
		v += uint32(diff)
	}
	return v, nil
}

package lightne

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"

	"lightne/internal/dense"
)

// Embedding persistence. Two formats are supported:
//
//   - text: one whitespace-separated row per vertex (interchange with
//     numpy.loadtxt, gensim, etc.)
//   - binary: a little-endian header (magic, version, rows, cols) followed
//     by float64 data — ~3x smaller and ~20x faster than text for large
//     embeddings.
//
// Binary format history:
//
//	v1 ("LNE1"): magic, rows, cols — written by seed releases; no version
//	             field, so the format could never evolve. Still readable.
//	v2 ("LNEB"): magic, version, rows, cols. The explicit version lets
//	             readers (notably lightne-serve, which must reject corrupt
//	             or foreign artifacts with a clear error) distinguish
//	             "not an embedding" from "newer format". Still readable.
//	v3 ("LNEB"): v2 framing plus a CRC-32C (Castagnoli) trailer over
//	             everything before it — current. The checksum is what makes
//	             crash-safe checkpoints possible: a file torn by a kill
//	             mid-write is detected on read instead of served. Writing
//	             is done by WriteEmbeddingBinary (plain streams) and
//	             WriteCheckpoint (atomic temp-file + fsync + rename).

// embMagicV1 identifies the original version-less binary format ("LNE1").
const embMagicV1 = 0x314e454c

// embMagic identifies the versioned binary embedding format ("LNEB").
const embMagic = 0x42454e4c

// embVersion is the format version WriteEmbeddingBinary emits.
const embVersion = 3

// maxEmbedDims bounds the column count a binary header may declare
// (embedding dimensions beyond this are implausible — the paper's runs top
// out at a few hundred — and a hostile header must not size allocations).
const maxEmbedDims = 1 << 20

// maxEmbedElements bounds rows*cols from a binary header.
const maxEmbedElements = 1 << 31

// codecChunkElems is the binary codec's unit of one read, checksum update
// and encode/decode loop: 64 KiB of data, whatever a header declares.
const codecChunkElems = (64 << 10) / 8

// crcTable is the Castagnoli polynomial table shared by the v3 writer and
// reader (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteEmbeddingText writes the matrix as one row of "%.6g" values per line.
func WriteEmbeddingText(w io.Writer, x *Matrix) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%.6g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEmbeddingText parses a text embedding (rows of equal-length
// whitespace-separated floats).
func ReadEmbeddingText(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var data []float64
	cols := -1
	rows := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("lightne: row %d has %d columns, want %d", rows, len(fields), cols)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("lightne: row %d: %v", rows, err)
			}
			data = append(data, v)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rows == 0 {
		return nil, fmt.Errorf("lightne: empty embedding")
	}
	return dense.FromSlice(rows, cols, data), nil
}

// writeEmbeddingV3 streams the matrix in the v3 framing (header, data,
// CRC-32C trailer) to w. mid, when non-nil, runs after roughly half the
// data has been written and flushed — the fault-injection seam the
// checkpoint writer uses to simulate a kill mid-write; its error aborts
// the write, leaving a torn prefix with no trailer behind.
func writeEmbeddingV3(w io.Writer, x *Matrix, mid func() error) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(crcTable)
	out := io.MultiWriter(bw, crc)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], embMagic)
	binary.LittleEndian.PutUint32(hdr[4:], embVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(x.Rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(x.Cols))
	if _, err := out.Write(hdr[:]); err != nil {
		return err
	}
	// Data moves in chunks; one chunk boundary sits at the midpoint so mid
	// fires with exactly len(x.Data)/2 elements written and flushed.
	half := len(x.Data) / 2
	buf := make([]byte, 8*min(len(x.Data), codecChunkElems))
	for lo := 0; lo < len(x.Data); {
		if lo == half && mid != nil {
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := mid(); err != nil {
				return err
			}
		}
		hi := min(lo+codecChunkElems, len(x.Data))
		if lo < half && hi > half {
			hi = half
		}
		chunk := buf[:8*(hi-lo)]
		for i, v := range x.Data[lo:hi] {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
		}
		if _, err := out.Write(chunk); err != nil {
			return err
		}
		lo = hi
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteEmbeddingBinary writes the matrix in the current (v3, CRC-trailed)
// binary format.
func WriteEmbeddingBinary(w io.Writer, x *Matrix) error {
	return writeEmbeddingV3(w, x, nil)
}

// ReadEmbeddingBinary reads a binary embedding, accepting the current
// CRC-trailed v3 format, the trailer-less v2, and the version-less v1
// files written by seed releases.
func ReadEmbeddingBinary(r io.Reader) (*Matrix, error) {
	x, _, err := readEmbeddingBinary(r)
	return x, err
}

// readEmbeddingBinary parses any supported binary framing and reports the
// version it found (1, 2, or 3).
func readEmbeddingBinary(r io.Reader) (*Matrix, int, error) {
	return readEmbeddingBinarySized(r, -1)
}

// readEmbeddingBinarySized is readEmbeddingBinary with a known input size:
// remaining, when >= 0, is the total byte length of the stream behind r
// (a stat'ed file, an HTTP Content-Length), and the declared rows×cols is
// rejected before any allocation when the payload it implies cannot fit in
// that many bytes — an adversarial header never sizes memory. remaining < 0
// means the size is unknown and only the incremental-growth bound applies.
func readEmbeddingBinarySized(r io.Reader, remaining int64) (*Matrix, int, error) {
	br := bufio.NewReader(r)
	crc := crc32.New(crcTable)
	offset := int64(0)
	// read pulls exactly len(buf) bytes, feeding the running checksum and
	// tracking the byte offset for error context.
	read := func(buf []byte, what string) error {
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("lightne: reading %s at byte offset %d: %w", what, offset, err)
		}
		crc.Write(buf)
		offset += int64(len(buf))
		return nil
	}
	version := 1
	var word [4]byte
	if err := read(word[:], "header"); err != nil {
		return nil, 0, err
	}
	switch binary.LittleEndian.Uint32(word[:]) {
	case embMagic:
		if err := read(word[:], "version"); err != nil {
			return nil, 0, err
		}
		v := binary.LittleEndian.Uint32(word[:])
		if v != 2 && v != embVersion {
			return nil, 0, fmt.Errorf("lightne: unsupported embedding format version %d (this build reads versions 1-%d; written by a newer tool?)", v, embVersion)
		}
		version = int(v)
	case embMagicV1:
		// Legacy header: rows and cols follow the magic directly.
	default:
		return nil, 0, fmt.Errorf("lightne: not a LightNE embedding file (bad magic %q)", word[:])
	}
	var shape [8]byte
	if err := read(shape[:], "shape"); err != nil {
		return nil, 0, err
	}
	// Validate the declared shape before any allocation: a truncated or
	// hostile header must not size memory.
	rows := int(binary.LittleEndian.Uint32(shape[0:]))
	cols := int(binary.LittleEndian.Uint32(shape[4:]))
	switch {
	case rows <= 0 || cols <= 0:
		return nil, 0, fmt.Errorf("lightne: implausible embedding shape %dx%d", rows, cols)
	case cols > maxEmbedDims:
		return nil, 0, fmt.Errorf("lightne: implausible embedding dimension %d (limit %d)", cols, maxEmbedDims)
	case rows > maxEmbedElements/cols:
		return nil, 0, fmt.Errorf("lightne: implausible embedding shape %dx%d (more than %d elements)", rows, cols, maxEmbedElements)
	}
	// Grow with the data actually present so a corrupt header cannot force
	// a huge allocation.
	total := rows * cols
	if remaining >= 0 {
		need := offset + int64(total)*8
		if version >= 3 {
			need += 4 // CRC trailer
		}
		if need > remaining {
			return nil, 0, fmt.Errorf("lightne: embedding declares shape %dx%d (%d bytes) but input holds only %d bytes: truncated or hostile header", rows, cols, need, remaining)
		}
	}
	capHint := total
	if capHint > 1<<18 {
		capHint = 1 << 18
	}
	data := make([]float64, 0, capHint)
	buf := make([]byte, 8*min(total, codecChunkElems))
	for len(data) < total {
		chunk := buf[:8*min(total-len(data), codecChunkElems)]
		if n, err := io.ReadFull(br, chunk); err != nil {
			// Name the first missing element as the per-element reader did:
			// io.EOF when it starts at the break, ErrUnexpectedEOF inside it.
			if err == io.ErrUnexpectedEOF && n%8 == 0 {
				err = io.EOF
			}
			return nil, 0, fmt.Errorf("lightne: reading element %d of %d at byte offset %d: %w", len(data)+n/8, total, offset+int64(n/8*8), err)
		}
		crc.Write(chunk)
		offset += int64(len(chunk))
		for i := 0; i < len(chunk); i += 8 {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	if version >= 3 {
		sum := crc.Sum32()
		var trailer [4]byte
		if _, err := io.ReadFull(br, trailer[:]); err != nil {
			return nil, 0, fmt.Errorf("lightne: reading checksum trailer at byte offset %d: %w", offset, err)
		}
		if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
			return nil, 0, fmt.Errorf("lightne: embedding checksum mismatch (stored %08x, computed %08x): file corrupt or torn by an interrupted write", got, sum)
		}
	}
	return dense.FromSlice(rows, cols, data), version, nil
}

// ReadEmbedding loads an embedding in either supported format, sniffing the
// binary magic (any version) and falling back to the text parser. This is
// what the CLI tools use so an artifact written by `lightne` (text or
// -binary) loads everywhere without format flags.
func ReadEmbedding(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && len(head) == 4 {
		switch binary.LittleEndian.Uint32(head) {
		case embMagic, embMagicV1:
			return ReadEmbeddingBinary(br)
		}
		for _, b := range head {
			if b != '\t' && b != '\n' && b != '\r' && (b < ' ' || b > '~') {
				return nil, fmt.Errorf("lightne: not a LightNE embedding file (binary data with bad magic %q)", head)
			}
		}
	}
	return ReadEmbeddingText(br)
}

package lightne

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/faultinject"
)

// writeEmbeddingV3Oracle is the per-element v3 writer the chunked codec
// replaced, kept as the byte-identity oracle.
func writeEmbeddingV3Oracle(w io.Writer, x *Matrix) error {
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
	var buf [8]byte
	for _, v := range x.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := out.Write(buf[:]); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// readEmbeddingOracle is the per-element reader the chunked codec replaced
// (one 8-byte read, checksum write and error label per element), kept as
// the oracle for decoded bits and for every error message.
func readEmbeddingOracle(r io.Reader, remaining int64) (*Matrix, int, error) {
	br := bufio.NewReader(r)
	crc := crc32.New(crcTable)
	offset := int64(0)
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
	default:
		return nil, 0, fmt.Errorf("lightne: not a LightNE embedding file (bad magic %q)", word[:])
	}
	var shape [8]byte
	if err := read(shape[:], "shape"); err != nil {
		return nil, 0, err
	}
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
	total := rows * cols
	if remaining >= 0 {
		need := offset + int64(total)*8
		if version >= 3 {
			need += 4
		}
		if need > remaining {
			return nil, 0, fmt.Errorf("lightne: embedding declares shape %dx%d (%d bytes) but input holds only %d bytes: truncated or hostile header", rows, cols, need, remaining)
		}
	}
	data := make([]float64, 0, min(total, 1<<18))
	var buf [8]byte
	for i := 0; i < total; i++ {
		if err := read(buf[:], fmt.Sprintf("element %d of %d", i, total)); err != nil {
			return nil, 0, err
		}
		data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
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

// codecSizes are the element counts around the chunk boundaries.
func codecSizes() []int {
	c := codecChunkElems
	return []int{1, c - 1, c, c + 1, 3*c + 5}
}

// codecMatrix is an n×1 gaussian matrix carrying the special values.
func codecMatrix(n int) *Matrix {
	x := dense.NewMatrix(n, 1)
	x.FillGaussian(uint64(n))
	x.Data[0] = math.Inf(-1)
	x.Data[n/2] = math.Copysign(0, -1)
	x.Data[n-1] = math.NaN()
	return x
}

func sameBits(t *testing.T, what string, want, got *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: element %d not bit-identical", what, i)
		}
	}
}

// TestCodecMatchesPerElementOracle pins the chunked codec to the
// per-element one at sizes around the chunk boundaries: every writer emits
// the oracle's bytes, the reader decodes them to the same bits, and every
// truncation — in the header, at and between chunk boundaries, mid-element,
// in the trailer — fails with the oracle's exact message, sized or not.
func TestCodecMatchesPerElementOracle(t *testing.T) {
	dir := t.TempDir()
	for _, n := range codecSizes() {
		x := codecMatrix(n)
		var want bytes.Buffer
		if err := writeEmbeddingV3Oracle(&want, x); err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		if err := WriteEmbeddingBinary(&streamed, x); err != nil {
			t.Fatal(err)
		}
		encoded, err := EncodeCheckpoint(x)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "emb.ckpt")
		if err := WriteCheckpoint(path, x); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]byte{"WriteEmbeddingBinary": streamed.Bytes(), "EncodeCheckpoint": encoded, "WriteCheckpoint": file} {
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("n=%d: %s bytes differ from the per-element writer", n, name)
			}
		}

		payload := want.Bytes()
		y, err := ReadEmbeddingBinary(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("n=%d ReadEmbeddingBinary", n), x, y)
		if y, err = ReadCheckpointFrom(bytes.NewReader(payload), int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("n=%d ReadCheckpointFrom", n), x, y)

		c := codecChunkElems
		for _, cut := range []int{0, 3, 16, 24, 16 + 8*(n/2) + 3, 16 + 8*c, 16 + 8*(c+7) + 5, 16 + 8*(2*c), len(payload) - 4, len(payload) - 1} {
			if cut < 0 || cut >= len(payload) {
				continue
			}
			for _, size := range []int64{-1, int64(cut)} {
				_, _, err := readEmbeddingBinarySized(bytes.NewReader(payload[:cut]), size)
				_, _, oerr := readEmbeddingOracle(bytes.NewReader(payload[:cut]), size)
				if err == nil || oerr == nil || err.Error() != oerr.Error() {
					t.Fatalf("n=%d cut at %d, size %d: got %v, oracle %v", n, cut, size, err, oerr)
				}
			}
		}
	}
}

// TestTruncationInSecondChunk names the first missing element and its byte
// offset when the stream breaks mid-element inside the second chunk.
func TestTruncationInSecondChunk(t *testing.T) {
	c := codecChunkElems
	x := codecMatrix(2*c + 3)
	var buf bytes.Buffer
	if err := WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	missing := c + 5
	torn := buf.Bytes()[:16+8*missing+3]
	_, err := ReadEmbeddingBinary(bytes.NewReader(torn))
	wantElem := fmt.Sprintf("element %d of %d", missing, 2*c+3)
	wantOff := fmt.Sprintf("byte offset %d", 16+8*missing)
	if err == nil || !strings.Contains(err.Error(), wantElem) || !strings.Contains(err.Error(), wantOff) {
		t.Fatalf("want %q and %q, got %v", wantElem, wantOff, err)
	}
}

// TestCheckpointSeamTornLength: the fault seam fires with the header and
// exactly len(Data)/2 elements written, so the torn temp file is as long as
// the per-element writer left it.
func TestCheckpointSeamTornLength(t *testing.T) {
	dir := t.TempDir()
	for _, n := range codecSizes() {
		path := filepath.Join(dir, fmt.Sprintf("emb-%d.ckpt", n))
		inj := faultinject.New()
		inj.FailAt(faultinject.CheckpointData, 1, nil)
		payload, err := EncodeCheckpoint(codecMatrix(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpointBytes(path, payload, inj); err == nil {
			t.Fatalf("n=%d: killed write must report failure", n)
		}
		st, err := os.Stat(path + ".tmp")
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(16 + 8*(n/2)); st.Size() != want {
			t.Fatalf("n=%d: torn temp file is %d bytes, want %d", n, st.Size(), want)
		}
	}
}

// TestReadAllocationBoundedByChunk: a header declaring 2^31 elements over
// an 8-byte body, with no size to check it against, costs the reader at
// most the incremental-growth hint plus one capped chunk buffer.
func TestReadAllocationBoundedByChunk(t *testing.T) {
	hostile := make([]byte, 24)
	binary.LittleEndian.PutUint32(hostile[0:], embMagic)
	binary.LittleEndian.PutUint32(hostile[4:], embVersion)
	binary.LittleEndian.PutUint32(hostile[8:], 1<<20)
	binary.LittleEndian.PutUint32(hostile[12:], 1<<11)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEmbeddingBinary(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "element 1 of 2147483648") {
		t.Fatalf("want truncation at element 1, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("reader allocated %d bytes for an 8-byte body", grew)
	}
}

// codecShapes are the harness's artifact shapes.
var codecShapes = [][2]int{{4096, 64}, {8192, 32}}

// BenchmarkReadEmbeddingBinary decodes an artifact with the chunked reader
// next to the per-element oracle.
func BenchmarkReadEmbeddingBinary(b *testing.B) {
	for _, s := range codecShapes {
		x := dense.NewMatrix(s[0], s[1])
		x.FillGaussian(1)
		var buf bytes.Buffer
		if err := WriteEmbeddingBinary(&buf, x); err != nil {
			b.Fatal(err)
		}
		payload := buf.Bytes()
		b.Run(fmt.Sprintf("%dx%d/chunked", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadEmbeddingBinary(bytes.NewReader(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/oracle", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, _, err := readEmbeddingOracle(bytes.NewReader(payload), -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeCheckpoint encodes a snapshot payload with the chunked
// writer next to the per-element oracle.
func BenchmarkEncodeCheckpoint(b *testing.B) {
	for _, s := range codecShapes {
		x := dense.NewMatrix(s[0], s[1])
		x.FillGaussian(1)
		b.Run(fmt.Sprintf("%dx%d/chunked", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(20 + 8*len(x.Data)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeCheckpoint(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/oracle", s[0], s[1]), func(b *testing.B) {
			b.SetBytes(int64(20 + 8*len(x.Data)))
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				buf.Grow(20 + 8*len(x.Data))
				if err := writeEmbeddingV3Oracle(&buf, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

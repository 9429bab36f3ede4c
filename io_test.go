package lightne_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"lightne"
	"lightne/internal/dense"
)

func TestEmbeddingTextRoundtrip(t *testing.T) {
	x := dense.NewMatrix(7, 3)
	x.FillGaussian(5)
	var buf bytes.Buffer
	if err := lightne.WriteEmbeddingText(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := lightne.ReadEmbeddingText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows != 7 || y.Cols != 3 {
		t.Fatalf("shape %dx%d", y.Rows, y.Cols)
	}
	for i := range x.Data {
		// Text format rounds to 6 significant digits.
		if math.Abs(x.Data[i]-y.Data[i]) > 1e-5*math.Max(1, math.Abs(x.Data[i])) {
			t.Fatalf("index %d: %g vs %g", i, x.Data[i], y.Data[i])
		}
	}
}

func TestEmbeddingBinaryRoundtripExact(t *testing.T) {
	x := dense.NewMatrix(13, 5)
	x.FillGaussian(9)
	x.Set(0, 0, math.Inf(1)) // binary must preserve special values
	x.Set(1, 1, -0.0)
	var buf bytes.Buffer
	if err := lightne.WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := lightne.ReadEmbeddingBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		t.Fatalf("shape %dx%d", y.Rows, y.Cols)
	}
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			t.Fatalf("index %d not bit-exact", i)
		}
	}
}

func TestEmbeddingBinaryLegacyV1(t *testing.T) {
	// Hand-craft a version-less v1 file ("LNE1": magic, rows, cols, data)
	// as the seed releases wrote them; it must still read.
	var buf bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0x314e454c)
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	binary.LittleEndian.PutUint32(hdr[8:], 3)
	buf.Write(hdr[:])
	want := []float64{1, 2, 3, 4, 5, 6}
	var w [8]byte
	for _, v := range want {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		buf.Write(w[:])
	}
	x, err := lightne.ReadEmbeddingBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 2 || x.Cols != 3 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
	for i, v := range want {
		if x.Data[i] != v {
			t.Fatalf("index %d: %g", i, x.Data[i])
		}
	}
}

// TestEmbeddingBinaryLegacyV2 hand-crafts a v2 file (versioned header, no
// CRC trailer) as pre-v3 releases wrote them; it must read back
// byte-identically.
func TestEmbeddingBinaryLegacyV2(t *testing.T) {
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0x42454e4c) // "LNEB"
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	binary.LittleEndian.PutUint32(hdr[8:], 2)
	binary.LittleEndian.PutUint32(hdr[12:], 3)
	buf.Write(hdr[:])
	want := []float64{1.5, -2.25, math.Inf(1), 4, 5e-300, -0.0}
	var w [8]byte
	for _, v := range want {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		buf.Write(w[:])
	}
	for name, read := range map[string]func() (*lightne.Matrix, error){
		"binary": func() (*lightne.Matrix, error) {
			return lightne.ReadEmbeddingBinary(bytes.NewReader(buf.Bytes()))
		},
		"autodetect": func() (*lightne.Matrix, error) {
			return lightne.ReadEmbedding(bytes.NewReader(buf.Bytes()))
		},
	} {
		x, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.Rows != 2 || x.Cols != 3 {
			t.Fatalf("%s: shape %dx%d", name, x.Rows, x.Cols)
		}
		for i, v := range want {
			if math.Float64bits(x.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: index %d not bit-identical", name, i)
			}
		}
	}
}

// TestEmbeddingBinaryV3ChecksumDetectsCorruption flips one data bit of a
// current-format file and expects a checksum error rather than silent
// acceptance.
func TestEmbeddingBinaryV3ChecksumDetectsCorruption(t *testing.T) {
	x := dense.NewMatrix(6, 4)
	x.FillGaussian(33)
	var buf bytes.Buffer
	if err := lightne.WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[20] ^= 0x01 // first data element
	_, err := lightne.ReadEmbeddingBinary(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

// TestEmbeddingBinaryHostileHeaders: implausible shapes are rejected
// before any allocation and short reads carry byte-offset context.
func TestEmbeddingBinaryHostileHeaders(t *testing.T) {
	mkHeader := func(rows, cols uint32) []byte {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], 0x42454e4c)
		binary.LittleEndian.PutUint32(hdr[4:], 3)
		binary.LittleEndian.PutUint32(hdr[8:], rows)
		binary.LittleEndian.PutUint32(hdr[12:], cols)
		return hdr[:]
	}
	cases := []struct {
		name       string
		rows, cols uint32
		wantSub    string
	}{
		{"huge dims", 2, 1 << 21, "implausible embedding dimension"},
		{"element overflow", 1 << 20, 1 << 13, "more than"},
		{"rows at uint32 max", 1<<32 - 1, 1, "more than"},
	}
	for _, tc := range cases {
		_, err := lightne.ReadEmbeddingBinary(bytes.NewReader(mkHeader(tc.rows, tc.cols)))
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: want %q error, got %v", tc.name, tc.wantSub, err)
		}
	}
	// Truncation mid-data names the element and byte offset.
	payload := append(mkHeader(4, 2), make([]byte, 3*8)...)
	_, err := lightne.ReadEmbeddingBinary(bytes.NewReader(payload))
	if err == nil || !strings.Contains(err.Error(), "element 3 of 8") || !strings.Contains(err.Error(), "byte offset 40") {
		t.Fatalf("want element/offset context, got %v", err)
	}
	// A v3 file missing only its trailer is reported as such.
	x := dense.NewMatrix(2, 2)
	var buf bytes.Buffer
	if err := lightne.WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	_, err = lightne.ReadEmbeddingBinary(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if err == nil || !strings.Contains(err.Error(), "checksum trailer") {
		t.Fatalf("want trailer error, got %v", err)
	}
}

func TestEmbeddingBinaryUnsupportedVersion(t *testing.T) {
	var buf bytes.Buffer
	x := dense.NewMatrix(2, 2)
	if err := lightne.WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[4:], 99) // future version
	_, err := lightne.ReadEmbeddingBinary(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want unsupported-version error, got %v", err)
	}
}

func TestReadEmbeddingAutoDetect(t *testing.T) {
	x := dense.NewMatrix(4, 3)
	x.FillGaussian(21)
	var bin, txt bytes.Buffer
	if err := lightne.WriteEmbeddingBinary(&bin, x); err != nil {
		t.Fatal(err)
	}
	if err := lightne.WriteEmbeddingText(&txt, x); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"binary": &bin, "text": &txt} {
		y, err := lightne.ReadEmbedding(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if y.Rows != 4 || y.Cols != 3 {
			t.Fatalf("%s: shape %dx%d", name, y.Rows, y.Cols)
		}
	}
	if _, err := lightne.ReadEmbedding(strings.NewReader("not numbers\n")); err == nil {
		t.Fatal("expected error for unparseable input")
	}
	_, err := lightne.ReadEmbedding(bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}))
	if err == nil || !strings.Contains(err.Error(), "not a LightNE embedding file") {
		t.Fatalf("binary garbage: want bad-magic rejection, got %v", err)
	}
}

func TestReadEmbeddingErrors(t *testing.T) {
	if _, err := lightne.ReadEmbeddingText(strings.NewReader("")); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := lightne.ReadEmbeddingText(strings.NewReader("1 2\n3\n")); err == nil {
		t.Fatal("expected ragged-row error")
	}
	if _, err := lightne.ReadEmbeddingText(strings.NewReader("1 x\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := lightne.ReadEmbeddingBinary(strings.NewReader("garbage")); err == nil {
		t.Fatal("expected bad-magic error")
	}
	var buf bytes.Buffer
	x := dense.NewMatrix(2, 2)
	if err := lightne.WriteEmbeddingBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := lightne.ReadEmbeddingBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestDynamicThroughPublicAPI(t *testing.T) {
	arcs := []lightne.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}}
	g, err := lightne.NewGraph(6, arcs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lightne.DefaultConfig(4)
	cfg.T = 3
	emb, err := lightne.NewDynamicEmbedder(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.AddEdges([]lightne.Edge{{U: 0, V: 5}}); err != nil {
		t.Fatal(err)
	}
	x, err := emb.Embed()
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 6 || x.Cols != 4 {
		t.Fatalf("shape %dx%d", x.Rows, x.Cols)
	}
}

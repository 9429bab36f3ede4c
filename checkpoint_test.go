package lightne_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightne"
	"lightne/internal/dense"
	"lightne/internal/faultinject"
)

func gaussian(t *testing.T, rows, cols int, seed uint64) *dense.Matrix {
	t.Helper()
	x := dense.NewMatrix(rows, cols)
	x.FillGaussian(seed)
	return x
}

func bitIdentical(t *testing.T, want, got *dense.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("element %d not bit-identical", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "emb.ckpt")
	x := gaussian(t, 17, 6, 3)
	x.Set(0, 0, math.Inf(-1)) // special values must survive
	if err := lightne.WriteCheckpoint(path, x); err != nil {
		t.Fatal(err)
	}
	y, err := lightne.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, x, y)
	// No temp file left behind after a clean write.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file still present: %v", err)
	}
}

// TestCheckpointKillMidWritePreservesOld: a write killed halfway through
// its data (simulated crash) must leave the previous checkpoint bit-intact
// at the final path — the atomic-replace guarantee — with the torn bytes
// confined to the temp file.
func TestCheckpointKillMidWritePreservesOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "emb.ckpt")
	old := gaussian(t, 20, 4, 7)
	if err := lightne.WriteCheckpoint(path, old); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New()
	inj.FailAt(faultinject.CheckpointData, 1, nil)
	next := gaussian(t, 20, 4, 8)
	if err := lightne.WriteCheckpointHooked(path, next, inj); err == nil {
		t.Fatal("killed write must report failure")
	}
	// The torn temp file exists (as after a real crash) and is shorter
	// than a complete checkpoint.
	st, err := os.Stat(path + ".tmp")
	if err != nil {
		t.Fatalf("expected torn temp file: %v", err)
	}
	if want := int64(16 + 20*4*8 + 4); st.Size() >= want {
		t.Fatalf("temp file %d bytes, want < %d (torn)", st.Size(), want)
	}
	// Recovery reads the old checkpoint, untouched.
	y, err := lightne.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, old, y)
	// The next clean write replaces everything.
	if err := lightne.WriteCheckpoint(path, next); err != nil {
		t.Fatal(err)
	}
	y, err = lightne.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, next, y)
}

// TestCheckpointKillBeforeRename: a crash between fsync and rename leaves
// the complete temp file but never publishes it; the final path is
// untouched (or absent on first write — the cold-start case).
func TestCheckpointKillBeforeRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "emb.ckpt")
	inj := faultinject.New()
	inj.FailAt(faultinject.CheckpointRename, 1, nil)
	x := gaussian(t, 9, 3, 11)
	if err := lightne.WriteCheckpointHooked(path, x, inj); err == nil {
		t.Fatal("killed rename must report failure")
	}
	if _, err := lightne.ReadCheckpoint(path); !os.IsNotExist(err) {
		t.Fatalf("final path must not exist, got %v", err)
	}
}

// TestCheckpointTornFinalFileDetectedByCRC: if the final file is torn
// anyway (lost directory sync, disk-level corruption), the CRC trailer
// detects it — truncation and bit flips both fail loudly instead of
// loading garbage vectors.
func TestCheckpointTornFinalFileDetectedByCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "emb.ckpt")
	x := gaussian(t, 15, 5, 13)
	if err := lightne.WriteCheckpoint(path, x); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation mid-data: the declared shape no longer fits the file's
	// actual size, so the read is rejected before any data allocation.
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = lightne.ReadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "truncated or hostile header") {
		t.Fatalf("truncated checkpoint: want shape-vs-size error, got %v", err)
	}

	// A single flipped bit mid-data: CRC mismatch.
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = lightne.ReadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt checkpoint: want checksum error, got %v", err)
	}

	// Restored bytes read fine again.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lightne.ReadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsUnchecksummedFormats: v1/v2 artifacts load through
// ReadEmbedding but are not acceptable as checkpoints (no integrity).
func TestCheckpointRejectsUnchecksummedFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "emb.ckpt")
	var buf bytes.Buffer
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0x42454e4c) // "LNEB"
	binary.LittleEndian.PutUint32(hdr[4:], 2)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint32(hdr[12:], 2)
	buf.Write(hdr[:])
	var w [8]byte
	for _, v := range []float64{1, 2} {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		buf.Write(w[:])
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lightne.ReadEmbedding(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("v2 must stay readable as an artifact: %v", err)
	}
	_, err := lightne.ReadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "no checksum") {
		t.Fatalf("v2 checkpoint: want no-checksum rejection, got %v", err)
	}
}

// TestCheckpointHostileHeaderRejected: a header declaring a multi-gigabyte
// shape over a tiny file must be rejected by the size bound before any
// allocation happens — both from disk (ReadCheckpoint stats the file) and
// from a sized stream (the replication fetch path).
func TestCheckpointHostileHeaderRejected(t *testing.T) {
	hostile := make([]byte, 24)
	binary.LittleEndian.PutUint32(hostile[0:], 0x42454e4c) // "LNEB"
	binary.LittleEndian.PutUint32(hostile[4:], 3)
	binary.LittleEndian.PutUint32(hostile[8:], 1<<20)  // rows
	binary.LittleEndian.PutUint32(hostile[12:], 1<<11) // cols: 2^31 elements, ~17 GB

	path := filepath.Join(t.TempDir(), "hostile.ckpt")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := lightne.ReadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "truncated or hostile header") {
		t.Fatalf("hostile file header: got %v", err)
	}

	_, err = lightne.ReadCheckpointFrom(bytes.NewReader(hostile), int64(len(hostile)))
	if err == nil || !strings.Contains(err.Error(), "truncated or hostile header") {
		t.Fatalf("hostile stream header: got %v", err)
	}

	if err := lightne.ValidateCheckpointPayload(hostile); err == nil {
		t.Fatal("payload validator accepted a hostile header")
	}
}

// TestCheckpointPayloadRoundTrip: EncodeCheckpoint → validate → persist via
// WriteCheckpointBytes → ReadCheckpoint recovers the matrix bit-identically.
// This is the exact byte path a follower runs on every applied generation.
func TestCheckpointPayloadRoundTrip(t *testing.T) {
	x := gaussian(t, 9, 5, 11)
	payload, err := lightne.EncodeCheckpoint(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := lightne.ValidateCheckpointPayload(payload); err != nil {
		t.Fatal(err)
	}
	// The in-memory encoding is byte-identical to the streaming one.
	var buf bytes.Buffer
	if err := lightne.WriteCheckpointTo(&buf, x); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatal("EncodeCheckpoint and WriteCheckpointTo disagree")
	}

	path := filepath.Join(t.TempDir(), "replica.ckpt")
	if err := lightne.WriteCheckpointBytes(path, payload); err != nil {
		t.Fatal(err)
	}
	y, err := lightne.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, x, y)
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file still present: %v", err)
	}
}

// TestCheckpointPayloadMinimumLength: the shortest checkpoint is a 16-byte
// header, one element and the 4-byte trailer. Anything shorter is "too
// short", not a shape/length mismatch.
func TestCheckpointPayloadMinimumLength(t *testing.T) {
	one, err := lightne.EncodeCheckpoint(gaussian(t, 1, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 28 {
		t.Fatalf("1x1 checkpoint is %d bytes, want 28", len(one))
	}
	if err := lightne.ValidateCheckpointPayload(one); err != nil {
		t.Fatalf("minimal payload rejected: %v", err)
	}
	for n := 20; n < 28; n++ {
		err := lightne.ValidateCheckpointPayload(one[:n])
		if err == nil || !strings.Contains(err.Error(), "too short") {
			t.Fatalf("%d-byte payload: want too-short error, got %v", n, err)
		}
	}
}

// TestCheckpointPayloadValidation: the cheap validator rejects every
// corruption class a follower can receive — short payloads, bad magic,
// wrong version, shape/length disagreement, flipped bits — and a rejected
// payload never reaches disk through WriteCheckpointBytes.
func TestCheckpointPayloadValidation(t *testing.T) {
	x := gaussian(t, 4, 3, 12)
	good, err := lightne.EncodeCheckpoint(x)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"short", func(p []byte) []byte { return p[:10] }, "too short"},
		{"bad magic", func(p []byte) []byte { p[0] ^= 0xff; return p }, "bad magic"},
		{"wrong version", func(p []byte) []byte { p[4] = 2; return p }, "format v2"},
		{"truncated body", func(p []byte) []byte { return p[:len(p)-8] }, "want"},
		{"trailing junk", func(p []byte) []byte { return append(p, 0) }, "want"},
		{"flipped bit", func(p []byte) []byte { p[len(p)/2] ^= 0x01; return p }, "checksum mismatch"},
	}
	for _, tc := range cases {
		p := tc.mutate(append([]byte(nil), good...))
		err := lightne.ValidateCheckpointPayload(p)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: got %v, want %q", tc.name, err, tc.wantErr)
		}
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := lightne.WriteCheckpointBytes(path, p); err == nil {
			t.Fatalf("%s: WriteCheckpointBytes accepted a corrupt payload", tc.name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt payload reached disk", tc.name)
		}
	}
}

package lightne

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"lightne/internal/faultinject"
)

// Crash-safe snapshot checkpoints. A checkpoint is the last served
// embedding persisted in the CRC-trailed LNEB v3 framing, written with the
// classic atomic-replace protocol:
//
//	write <path>.tmp → fsync file → rename over <path> → fsync directory
//
// so the checkpoint path always holds either the previous complete
// checkpoint or the new complete checkpoint, never a torn write. A crash
// mid-write leaves at worst a partial <path>.tmp, which recovery ignores
// and the next successful write replaces. If the filesystem still manages
// to tear the final file (lost dir sync, disk corruption), the v3 CRC
// trailer catches it: ReadCheckpoint fails loudly and the caller falls
// back to a cold start instead of serving corrupt vectors.

// WriteCheckpoint atomically persists x to path in the LNEB v3 format.
func WriteCheckpoint(path string, x *Matrix) error {
	return WriteCheckpointHooked(path, x, nil)
}

// WriteCheckpointHooked is WriteCheckpoint with fault-injection hooks
// (faultinject.CheckpointData / CheckpointSync / CheckpointRename) for
// crash-recovery tests; nil hooks means no injection.
func WriteCheckpointHooked(path string, x *Matrix, h faultinject.Hooks) error {
	hooks := faultinject.OrNop(h)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lightne: creating checkpoint temp file: %w", err)
	}
	// An injected mid-write failure simulates a kill: return without
	// cleanup, leaving the torn temp file exactly as a crash would. The
	// final path is untouched either way.
	mid := func() error { return hooks.Fire(faultinject.CheckpointData) }
	if err := writeEmbeddingV3(f, x, mid); err != nil {
		f.Close()
		return fmt.Errorf("lightne: writing checkpoint %s: %w", tmp, err)
	}
	if err := hooks.Fire(faultinject.CheckpointSync); err != nil {
		f.Close()
		return fmt.Errorf("lightne: syncing checkpoint %s: %w", tmp, err)
	}
	return commitCheckpointHooked(f, tmp, path, hooks)
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint, verifying
// its CRC-32C trailer. It rejects embeddings in the older v1/v2 framings —
// a checkpoint without a checksum cannot distinguish a torn write from
// good data, which defeats its purpose; point artifact loading at those
// files instead (ReadEmbedding). The declared shape is bounded by the
// file's actual size before any allocation, so a checkpoint with an
// adversarial (or merely torn) header errors out instead of sizing memory.
func ReadCheckpoint(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	x, err := ReadCheckpointFrom(f, size)
	if err != nil {
		return nil, fmt.Errorf("lightne: checkpoint %s: %w", path, err)
	}
	return x, nil
}

// ReadCheckpointFrom reads one checkpoint from an arbitrary stream — the
// replication wire format is exactly the on-disk checkpoint format, so a
// follower decodes a shipped snapshot with the same CRC-verified path a
// warm restart uses. size, when >= 0, is the total stream length (an HTTP
// Content-Length, a stat'ed file) and bounds the rows×cols allocation a
// header may demand; size < 0 means unknown (incremental growth bound
// only). Like ReadCheckpoint it rejects the checksum-less v1/v2 framings.
func ReadCheckpointFrom(r io.Reader, size int64) (*Matrix, error) {
	x, version, err := readEmbeddingBinarySized(r, size)
	if err != nil {
		return nil, err
	}
	if version < 3 {
		return nil, fmt.Errorf("lightne: stream is format v%d, which has no checksum; checkpoints require v3 (rewrite it with WriteCheckpoint)", version)
	}
	return x, nil
}

// WriteCheckpointTo streams x in the checkpoint (LNEB v3, CRC-trailed)
// framing to w, without any of the atomic-replace file protocol — this is
// the serialization half a leader uses to ship snapshots over HTTP.
func WriteCheckpointTo(w io.Writer, x *Matrix) error {
	return writeEmbeddingV3(w, x, nil)
}

// EncodeCheckpoint serializes x to one in-memory checkpoint payload. A
// replication leader encodes each published generation once and then
// serves the same bytes to every follower.
func EncodeCheckpoint(x *Matrix) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(20 + 8*len(x.Data))
	if err := writeEmbeddingV3(&buf, x, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ValidateCheckpointPayload cheaply verifies that payload is one complete
// LNEB v3 checkpoint: magic, version, a shape consistent with the payload
// length, and a matching CRC-32C trailer. It does not materialize the
// matrix — callers that need the data use ReadCheckpointFrom.
func ValidateCheckpointPayload(payload []byte) error {
	if len(payload) < 28 { // 16-byte header + at least one element + trailer
		return fmt.Errorf("lightne: checkpoint payload of %d bytes is too short", len(payload))
	}
	if m := binary.LittleEndian.Uint32(payload[0:]); m != embMagic {
		return fmt.Errorf("lightne: checkpoint payload has bad magic %08x", m)
	}
	if v := binary.LittleEndian.Uint32(payload[4:]); v != embVersion {
		return fmt.Errorf("lightne: checkpoint payload is format v%d, want v%d", v, embVersion)
	}
	rows := int64(binary.LittleEndian.Uint32(payload[8:]))
	cols := int64(binary.LittleEndian.Uint32(payload[12:]))
	if rows <= 0 || cols <= 0 || cols > maxEmbedDims || rows > maxEmbedElements/max64(cols, 1) {
		return fmt.Errorf("lightne: checkpoint payload declares implausible shape %dx%d", rows, cols)
	}
	if want := 20 + 8*rows*cols; int64(len(payload)) != want {
		return fmt.Errorf("lightne: checkpoint payload is %d bytes, want %d for shape %dx%d", len(payload), want, rows, cols)
	}
	body := payload[:len(payload)-4]
	stored := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	if sum := crc32.Checksum(body, crcTable); sum != stored {
		return fmt.Errorf("lightne: checkpoint payload checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// WriteCheckpointBytes atomically persists an already-encoded checkpoint
// payload (the bytes a follower just fetched and decoded) to path with the
// same temp-file + fsync + rename protocol as WriteCheckpoint, after
// validating the payload so a corrupt buffer can never become the recovery
// point.
func WriteCheckpointBytes(path string, payload []byte) error {
	if err := ValidateCheckpointPayload(payload); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lightne: creating checkpoint temp file: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return fmt.Errorf("lightne: writing checkpoint %s: %w", tmp, err)
	}
	return commitCheckpointHooked(f, tmp, path, faultinject.Nop)
}

// commitCheckpointHooked finishes the atomic-replace protocol for a fully
// written temp file: fsync file, rename over path, best-effort fsync of
// the directory. hooks fires CheckpointRename before the rename.
func commitCheckpointHooked(f *os.File, tmp, path string, hooks faultinject.Hooks) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lightne: syncing checkpoint %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lightne: closing checkpoint %s: %w", tmp, err)
	}
	if err := hooks.Fire(faultinject.CheckpointRename); err != nil {
		return fmt.Errorf("lightne: publishing checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("lightne: publishing checkpoint %s: %w", path, err)
	}
	// Persist the rename itself. Best effort: some filesystems refuse
	// directory fsync, and the data file is already durable.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

package compress

import (
	"math/rand"
	"testing"
)

// FuzzDecode drives the checked decode path over arbitrary single-vertex
// encodings: a fuzzer-controlled payload with a claimed degree and block
// size, exactly what an attacker controls in an mmap'd LNGC file. The
// checked path must never panic; when it accepts the bytes, every unchecked
// decoder — Neighbors, Decode, DecodeBlock, Nth and the lazy and full
// cursors — must agree with the sequential decode (a nil DecodeChecked
// certifies the unchecked paths are in-bounds).
func FuzzDecode(f *testing.F) {
	// Seed with a real encoding and truncations of it at every length —
	// truncated varints, severed block tables, and short final blocks.
	adj := [][]uint32{{1, 3, 3, 7, 100, 2000, 2001, 2002, 70000}}
	offsets, edges := buildCSR(adj)
	for _, bs := range []int{1, 2, 4} {
		a, err := Build(offsets, edges, bs)
		if err != nil {
			f.Fatal(err)
		}
		_, _, data := a.Sections()
		for cut := 0; cut <= len(data); cut++ {
			f.Add(uint16(len(adj[0])), uint8(bs), data[:cut])
		}
	}
	f.Add(uint16(3), uint8(0), []byte{0x80, 0x80, 0x80})                                    // unterminated varint
	f.Add(uint16(200), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // huge table
	// Gap mixes of every varint width, each list's last varint ending the
	// payload, at block sizes 1, 2 and 64 (TestDecodersAgreeOnAdversarialGaps).
	for _, nbrs := range gapAdj(rand.New(rand.NewSource(44)), 12) {
		offsets, edges := buildCSR([][]uint32{nbrs})
		for _, bs := range []int{1, 2, 64} {
			a, err := Build(offsets, edges, bs)
			if err != nil {
				f.Fatal(err)
			}
			_, _, data := a.Sections()
			f.Add(uint16(len(nbrs)), uint8(bs), data)
		}
	}

	f.Fuzz(func(t *testing.T, degree uint16, blockSize uint8, data []byte) {
		bs := int(blockSize)
		if bs == 0 {
			bs = DefaultBlockSize
		}
		a, err := FromSections(
			[]uint32{uint32(degree)},
			[]uint64{0, uint64(len(data))},
			data, bs)
		if err != nil {
			return
		}
		var seq []uint32
		if err := a.DecodeChecked(0, func(v uint32) { seq = append(seq, v) }); err != nil {
			// Rejected: the unchecked path may not be touched. NthChecked
			// must still fail cleanly rather than succeed on corrupt bytes
			// the sequential check refused... it may succeed for early
			// blocks (corruption can be later), so only require no panic.
			for i := 0; i < int(degree); i += 1 + int(degree)/8 {
				_, _ = a.NthChecked(0, i)
			}
			return
		}
		if len(seq) != int(degree) {
			t.Fatalf("accepted decode yielded %d neighbors for degree %d", len(seq), degree)
		}
		checkDecoders(t, a, [][]uint32{seq})
	})
}

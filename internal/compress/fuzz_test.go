package compress

import "testing"

// FuzzDecode drives the checked decode path over arbitrary single-vertex
// encodings: a fuzzer-controlled payload with a claimed degree and block
// size, exactly what an attacker controls in an mmap'd LNGC file. The
// checked path must never panic; when it accepts the bytes, the cursor,
// block and Nth decoders must all agree with the sequential decode (a nil
// DecodeChecked certifies the unchecked paths are in-bounds).
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
		if degree == 0 {
			return
		}
		// Cross-validate every random-access decoder against the sequence.
		var blocks []uint32
		for b := 0; b < a.NumBlocks(0); b++ {
			blocks = a.DecodeBlock(0, b, blocks)
		}
		var cur Cursor
		cur.Begin(a, 0, 1) // lazy mode
		var full Cursor
		full.Begin(a, 0, int(degree)+1) // full-decode mode
		for i, want := range seq {
			if got, err := a.NthChecked(0, i); err != nil || got != want {
				t.Fatalf("NthChecked(0,%d)=(%d,%v) want %d", i, got, err, want)
			}
			if got := a.Nth(0, i); got != want {
				t.Fatalf("Nth(0,%d)=%d want %d", i, got, want)
			}
			if blocks[i] != want {
				t.Fatalf("DecodeBlock[%d]=%d want %d", i, blocks[i], want)
			}
			if got := cur.Nth(i); got != want {
				t.Fatalf("lazy cursor Nth(%d)=%d want %d", i, got, want)
			}
			if got := full.Nth(i); got != want {
				t.Fatalf("full cursor Nth(%d)=%d want %d", i, got, want)
			}
		}
	})
}

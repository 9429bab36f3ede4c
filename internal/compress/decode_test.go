package compress

import (
	"math/rand"
	"testing"
)

// checkDecoders checks every decoder of a against adj, the sorted lists a
// was built from: Neighbors (appending after a non-empty prefix),
// DecodeBlock, Nth, the lazy and the full Cursor, DecodeChecked and
// NthChecked. The unchecked decoders share one block decoder; the checked
// ones are separate code, so each pair is a differential.
func checkDecoders(t *testing.T, a *Adjacency, adj [][]uint32) {
	t.Helper()
	var buf, blocks []uint32
	var lazy, full Cursor
	for ui, want := range adj {
		u := uint32(ui)
		buf = a.Neighbors(u, append(buf[:0], 7))
		if len(buf) != len(want)+1 || buf[0] != 7 {
			t.Fatalf("bs=%d u=%d: Neighbors returned %d values (prefix %d) for degree %d", a.BlockSize(), u, len(buf), buf[0], len(want))
		}
		var checked []uint32
		if err := a.DecodeChecked(u, func(v uint32) { checked = append(checked, v) }); err != nil {
			t.Fatalf("bs=%d u=%d: DecodeChecked: %v", a.BlockSize(), u, err)
		}
		blocks = blocks[:0]
		for b := 0; b < a.NumBlocks(u); b++ {
			blocks = a.DecodeBlock(u, b, blocks)
		}
		if len(checked) != len(want) || len(blocks) != len(want) {
			t.Fatalf("bs=%d u=%d: DecodeChecked %d, DecodeBlock %d values for degree %d",
				a.BlockSize(), u, len(checked), len(blocks), len(want))
		}
		lazy.Begin(a, u, 1)
		full.Begin(a, u, len(want))
		for i, w := range want {
			nth, err := a.NthChecked(u, i)
			got := [...]uint32{buf[i+1], checked[i], blocks[i], a.Nth(u, i), lazy.Nth(i), full.Nth(i), nth}
			for k, g := range got {
				if g != w || err != nil {
					name := [...]string{"Neighbors", "DecodeChecked", "DecodeBlock", "Nth", "lazy Cursor", "full Cursor", "NthChecked"}[k]
					t.Fatalf("bs=%d u=%d i=%d: %s %d (err %v), want %d", a.BlockSize(), u, i, name, g, err, w)
				}
			}
		}
	}
}

// gapAdj returns n sorted lists for vertices 0…n-1 whose gaps mix varints of
// every length a uint32 gap takes (1 to 5 bytes) and repeats (gap 0), whose
// first neighbors fall below, at and above their vertex (negative, zero and
// positive zigzag heads, up to 2^32 away), and whose last gaps take every
// length, so the last varint of a region — and of the whole payload — ends
// exactly at len(data) in each width.
func gapAdj(r *rand.Rand, n int) [][]uint32 {
	// Gap ranges [lo, hi) by varint width; a width whose lo no longer fits
	// below 2^32 degrades to a repeat.
	ranges := [...][2]uint64{{0, 1}, {1, 1 << 7}, {1 << 7, 1 << 14}, {1 << 14, 1 << 21}, {1 << 21, 1 << 22}, {1 << 28, 1 << 29}}
	pick := [...]int{0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5}
	adj := make([][]uint32, n)
	for u := range adj {
		var v uint64
		switch u % 4 {
		case 0:
			v = uint64(r.Intn(u + 1))
		case 1:
			v = uint64(u) + uint64(r.Intn(1<<20))
		case 2:
			v = uint64(r.Uint32())
		}
		d := 1 + r.Intn(150)
		adj[u] = append(adj[u], uint32(v))
		for i := 1; i < d; i++ {
			k := pick[r.Intn(len(pick))]
			if i == d-1 {
				k = 1 + u%5 // the last gap's width cycles over 1…5 bytes
			}
			lo, hi := ranges[k][0], min(ranges[k][1], 1<<32-v)
			if lo >= hi {
				lo, hi = 0, 1
			}
			v += lo + uint64(r.Int63n(int64(hi-lo)))
			adj[u] = append(adj[u], uint32(v))
		}
	}
	return adj
}

// TestDecodersAgreeOnAdversarialGaps runs every decoder over gap mixes of
// all varint widths at block sizes that put each width at block starts,
// block ends and region ends.
func TestDecodersAgreeOnAdversarialGaps(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	adj := gapAdj(r, 400)
	for _, bs := range []int{1, 2, 3, 64} {
		a := mustBuild(t, adj, bs)
		checkDecoders(t, a, adj)
		// Each region alone in a payload that ends at its last varint, with
		// no capacity past it. Read as vertex 0's, its heads are relative to
		// 0, so every neighbor comes out shifted by -u (mod 2^32).
		degrees, offs, data := a.Sections()
		for u, nbrs := range adj {
			region := append([]byte(nil), data[offs[u]:offs[u+1]]...)
			one, err := FromSections(degrees[u:u+1], []uint64{0, uint64(len(region))}, region, bs)
			if err != nil {
				t.Fatal(err)
			}
			shifted := make([]uint32, len(nbrs))
			for i, v := range nbrs {
				shifted[i] = v - uint32(u)
			}
			checkDecoders(t, one, [][]uint32{shifted})
		}
	}
}

// TestDecodeGapsWidths pins the gap decoder on single gaps of each varint
// width, each the whole payload, so that the varint ends exactly at
// len(data): a one-byte gap there has no second byte to read.
func TestDecodeGapsWidths(t *testing.T) {
	for _, gap := range []uint32{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000, 0xfffffff, 0x10000000, 0xfffffffe} {
		data := make([]byte, 5)
		n := putVarint(data, uint64(gap))
		data = data[:n:n]
		var dst [1]uint32
		pos, v := decodeGaps(data, 0, 1, dst[:])
		if pos != n || v != 1+gap || dst[0] != v {
			t.Fatalf("gap %#x (%d bytes): pos %d sum %d dst %d, want %d %d", gap, n, pos, v, dst[0], n, 1+gap)
		}
	}
}

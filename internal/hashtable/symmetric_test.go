package hashtable_test

import (
	"runtime"
	"slices"
	"testing"

	"lightne/internal/hashtable"
	"lightne/internal/rng"
)

// symmetricCase is one input of the symmetric grouping tests: the heads of
// a pass, each a pair of endpoints with its fixed-point weight.
type symmetricCase struct {
	name    string
	numRows int
	e0, e1  []uint32
	fixed   []uint64
}

// symmetricCases draws the inputs: heavy duplication with self-pairs and
// weights whose float64 sums would round; rows dense enough that the
// transpose cuts them into a block per worker and more; mostly empty rows;
// no rows; one
// row; more than 2^16 rows, so rows and columns need 64-bit bucket keys
// together; and weights at ToFixed(MaxWeight), whose doubling and sums wrap.
func symmetricCases() []symmetricCase {
	draw := func(name string, seed uint64, heads, numRows int, weight func(*rng.Source) uint64) symmetricCase {
		c := symmetricCase{name: name, numRows: numRows}
		s := rng.New(seed, 0)
		for i := 0; i < heads; i++ {
			u, v := uint32(s.Intn(numRows)), uint32(s.Intn(numRows))
			if s.Intn(4) == 0 {
				v = u
			}
			c.e0, c.e1, c.fixed = append(c.e0, u), append(c.e1, v), append(c.fixed, weight(s))
		}
		return c
	}
	large := func(s *rng.Source) uint64 { return 1 + uint64(s.Intn(1<<20)) + uint64(s.Intn(1<<12))<<40 }
	small := func(s *rng.Source) uint64 { return 1 + uint64(s.Intn(1<<20)) }
	maxW := func(s *rng.Source) uint64 {
		if s.Intn(2) == 0 {
			return hashtable.ToFixed(hashtable.MaxWeight)
		}
		return small(s)
	}
	return []symmetricCase{
		draw("duplicated", 1, 60000, 40, large),
		draw("many-blocks", 7, 200000, 3000, small),
		draw("empty-rows", 2, 500, 5000, small),
		draw("no-rows", 3, 0, 0, small),
		draw("one-row", 4, 3000, 1, small),
		draw("wide", 5, 50000, 100000, small),
		draw("max-weight", 6, 20000, 30, maxW),
	}
}

// segments returns the case's one-orientation pairs cut into segments of
// random lengths, empty ones included.
func (c symmetricCase) segments(seed uint64) (keys, fixed [][]uint64) {
	s := rng.New(seed, 1)
	var k, f []uint64
	for i := range c.e0 {
		key, w := hashtable.SymmetricPair(c.e0[i], c.e1[i], c.fixed[i])
		k, f = append(k, key), append(f, w)
	}
	for lo := 0; lo <= len(k); {
		hi := min(len(k), lo+s.Intn(9000))
		keys, fixed = append(keys, k[lo:hi]), append(fixed, f[lo:hi])
		if lo = hi; hi == len(k) {
			break
		}
	}
	return keys, fixed
}

// twoOrientations returns the case's pairs as the table path took them:
// (e0, e1) and (e1, e0), each with the head's weight.
func (c symmetricCase) twoOrientations() (keys, fixed []uint64) {
	for i := range c.e0 {
		keys = append(keys, hashtable.Key(c.e0[i], c.e1[i]), hashtable.Key(c.e1[i], c.e0[i]))
		fixed = append(fixed, c.fixed[i], c.fixed[i])
	}
	return keys, fixed
}

// TestGroupUpperMirrorBitIdenticalToGroupCSR: grouping one orientation into
// the upper triangle and mirroring it gives GroupCSR's arrays on both
// orientations, bit for bit, at GOMAXPROCS 1, 2 and 4; the upper triangle is
// GroupCSR's entries on or above the diagonal; and neither step modifies
// what it reads.
func TestGroupUpperMirrorBitIdenticalToGroupCSR(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, c := range symmetricCases() {
		both, bothFixed := c.twoOrientations()
		wantPtr, wantCols, wantWs := hashtable.GroupCSR(both, bothFixed, c.numRows)
		var upCols []uint32
		var upWs []float64
		for r := 0; r < c.numRows; r++ {
			for p := wantPtr[r]; p < wantPtr[r+1]; p++ {
				if wantCols[p] >= uint32(r) {
					upCols, upWs = append(upCols, wantCols[p]), append(upWs, wantWs[p])
				}
			}
		}
		keys, fixed := c.segments(uint64(i))
		before := slices.Clone(slices.Concat(keys...))
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			ptr, cols, ws := hashtable.GroupUpperCSR(keys, fixed, c.numRows)
			if !slices.Equal(cols, upCols) || !slices.Equal(ws, upWs) {
				t.Fatalf("%s procs=%d: upper triangle differs from GroupCSR's", c.name, procs)
			}
			upper := slices.Clone(ws)
			rowPtr, fullCols, fullWs := hashtable.Mirror(ptr, cols, ws)
			if !slices.Equal(rowPtr, wantPtr) || !slices.Equal(fullCols, wantCols) || !slices.Equal(fullWs, wantWs) {
				t.Fatalf("%s procs=%d: mirror differs from GroupCSR on both orientations", c.name, procs)
			}
			if !slices.Equal(ws, upper) {
				t.Fatalf("%s procs=%d: Mirror modified the upper triangle", c.name, procs)
			}
		}
		if !slices.Equal(slices.Concat(keys...), before) {
			t.Fatalf("%s: GroupUpperCSR modified its keys", c.name)
		}
	}
}

// TestGroupUpperCSRPanics: a key below the diagonal, a vertex past the rows
// as a row or as a column, weights that do not pair up with the keys and no
// weights at all each panic, and so does Mirror given an entry below the
// diagonal or past the last row.
func TestGroupUpperCSRPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	for _, c := range []struct {
		name    string
		keys    [][]uint64
		fixed   [][]uint64
		numRows int
	}{
		{"below-diagonal", [][]uint64{{hashtable.Key(1, 2), hashtable.Key(5, 3)}}, [][]uint64{{1, 1}}, 8},
		{"row-out-of-range", [][]uint64{{hashtable.Key(7, 7)}}, [][]uint64{{1}}, 7},
		{"column-out-of-range", [][]uint64{{hashtable.Key(1, 9)}}, [][]uint64{{1}}, 5},
		{"length-mismatch", [][]uint64{{hashtable.Key(1, 2)}, {hashtable.Key(1, 3)}}, [][]uint64{{1}, {}}, 5},
		{"no-weights", [][]uint64{{hashtable.Key(1, 2)}}, nil, 5},
	} {
		mustPanic(c.name, func() { hashtable.GroupUpperCSR(c.keys, c.fixed, c.numRows) })
	}
	mustPanic("mirror below-diagonal", func() { hashtable.Mirror([]int64{0, 0, 1}, []uint32{0}, []float64{1}) })
	mustPanic("mirror column-out-of-range", func() { hashtable.Mirror([]int64{0, 1, 1}, []uint32{2}, []float64{1}) })
}

// TestSymmetricPairDoublesSelfPairs: a self pair's weight is the sum of its
// two orientations in uint64 arithmetic, wrapping at ToFixed(MaxWeight); any
// other pair keeps its weight under its ascending key.
func TestSymmetricPairDoublesSelfPairs(t *testing.T) {
	for _, f := range []uint64{1, 3 << 40, hashtable.ToFixed(hashtable.MaxWeight)} {
		if k, w := hashtable.SymmetricPair(4, 4, f); k != hashtable.Key(4, 4) || w != f+f {
			t.Fatalf("self pair of %d: (%x, %d)", f, k, w)
		}
		for _, uv := range [][2]uint32{{2, 9}, {9, 2}} {
			if k, w := hashtable.SymmetricPair(uv[0], uv[1], f); k != hashtable.Key(2, 9) || w != f {
				t.Fatalf("pair %v of %d: (%x, %d)", uv, f, k, w)
			}
		}
	}
}

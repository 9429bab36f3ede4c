package sparse

import (
	"encoding/binary"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lightne/internal/rng"
)

// naiveFromCOO is the reference build: a map accumulates duplicates in input
// order (matching FromCOO's stable per-row sort bit for bit), then rows are
// emitted sorted. Deliberately simple — the oracle for the differential and fuzz
// tests.
func naiveFromCOO(rows, cols int, us, vs []uint32, ws []float64) (*CSR, bool) {
	acc := make(map[uint64]float64)
	var order []uint64
	for i := range us {
		if int(us[i]) >= rows || int(vs[i]) >= cols {
			return nil, false
		}
		k := uint64(us[i])<<32 | uint64(vs[i])
		if _, seen := acc[k]; !seen {
			order = append(order, k)
		}
		acc[k] += ws[i]
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for _, k := range order {
		m.RowPtr[int(k>>32)+1]++
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	m.ColIdx = make([]uint32, len(order))
	m.Val = make([]float64, len(order))
	for i, k := range order {
		m.ColIdx[i] = uint32(k)
		m.Val[i] = acc[k]
	}
	return m, true
}

func assertCSREqual(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		t.Fatalf("shape (%d,%d) want (%d,%d)", got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if len(got.RowPtr) != len(want.RowPtr) {
		t.Fatalf("rowPtr len %d want %d", len(got.RowPtr), len(want.RowPtr))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("rowPtr[%d]=%d want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.ColIdx) != len(want.ColIdx) {
		t.Fatalf("nnz %d want %d", len(got.ColIdx), len(want.ColIdx))
	}
	for i := range want.ColIdx {
		if got.ColIdx[i] != want.ColIdx[i] {
			t.Fatalf("col[%d]=%d want %d", i, got.ColIdx[i], want.ColIdx[i])
		}
		// Bit-identical: duplicates are summed in input order on both sides.
		if got.Val[i] != want.Val[i] {
			t.Fatalf("val[%d]=%g want %g", i, got.Val[i], want.Val[i])
		}
	}
}

// TestFromCOODifferential compares the build against the naive reference on
// duplicate entries, unsorted input, empty rows, single-row matrices, and
// empty input.
func TestFromCOODifferential(t *testing.T) {
	s := rng.New(41, 0)
	type tc struct {
		name       string
		rows, cols int
		n          int
		dupSpace   int // triples drawn from a space this small force dups
	}
	cases := []tc{
		{"empty", 5, 5, 0, 1},
		{"single", 7, 9, 1, 1},
		{"one-row", 1, 1000, 5000, 300},
		{"one-col", 1000, 1, 5000, 300},
		{"dense-dups", 20, 20, 20000, 0},
		{"sparse-empty-rows", 5000, 5000, 2000, 0},
		{"mid", 500, 700, 50000, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			us := make([]uint32, c.n)
			vs := make([]uint32, c.n)
			ws := make([]float64, c.n)
			for i := range us {
				if c.dupSpace > 0 {
					us[i] = uint32(s.Intn(c.rows))
					vs[i] = uint32(s.Intn(min(c.cols, c.dupSpace)))
				} else {
					us[i] = uint32(s.Intn(c.rows))
					vs[i] = uint32(s.Intn(c.cols))
				}
				ws[i] = float64(s.Intn(1000))/8 - 40 // includes negatives, zeros
			}
			want, _ := naiveFromCOO(c.rows, c.cols, us, vs, ws)
			got, err := FromCOO(c.rows, c.cols, us, vs, ws)
			if err != nil {
				t.Fatal(err)
			}
			assertCSREqual(t, got, want)
		})
	}
}

// TestFromCOORejectsOutOfRange: the bounds check must still fire.
func TestFromCOORejectsOutOfRange(t *testing.T) {
	if _, err := FromCOO(4, 4, []uint32{4}, []uint32{0}, []float64{1}); err == nil {
		t.Fatal("row out of range accepted")
	}
	if _, err := FromCOO(4, 4, []uint32{0}, []uint32{4}, []float64{1}); err == nil {
		t.Fatal("col out of range accepted")
	}
	if _, err := FromCOO(4, 4, []uint32{0, 1}, []uint32{0}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestFromCOOSumsDuplicatesInInputOrder: duplicates are summed left to
// right in input order, wherever they lie in it — (1e17 + 1) − 1e17 is 0,
// and any other order of those three gives 1.
func TestFromCOOSumsDuplicatesInInputOrder(t *testing.T) {
	us := []uint32{1, 0, 1, 1, 0}
	vs := []uint32{2, 0, 2, 2, 0}
	ws := []float64{1e17, 5, 1, -1e17, 6}
	m, err := FromCOO(2, 3, us, vs, ws)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 0 || m.At(0, 0) != 11 || m.NNZ() != 2 {
		t.Fatalf("At(1,2)=%g At(0,0)=%g nnz=%d, want 0, 11, 2", m.At(1, 2), m.At(0, 0), m.NNZ())
	}
}

// TestFromCOOErrorNamesFirstOutOfRange: with two out-of-range triples far
// apart, the error names the first, at every GOMAXPROCS.
func TestFromCOOErrorNamesFirstOutOfRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 20000
	us, vs, ws := make([]uint32, n), make([]uint32, n), make([]float64, n)
	for i := range us {
		us[i], vs[i], ws[i] = uint32(i%50), uint32(i%70), 1
	}
	us[100], vs[100] = 50, 3               // row out of range
	us[100+3*4096], vs[100+3*4096] = 7, 70 // column out of range
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := FromCOO(50, 70, us, vs, ws)
		if err == nil || !strings.Contains(err.Error(), "(50,3)") {
			t.Fatalf("procs=%d: error %v, want one naming entry (50,3)", procs, err)
		}
	}
}

// TestFromCOODoesNotMutateInput: the build must sort scratch copies, never
// the caller's slices.
func TestFromCOODoesNotMutateInput(t *testing.T) {
	us := []uint32{3, 0, 3, 1}
	vs := []uint32{2, 9, 1, 0}
	ws := []float64{1, 2, 3, 4}
	usOrig := append([]uint32(nil), us...)
	vsOrig := append([]uint32(nil), vs...)
	wsOrig := append([]float64(nil), ws...)
	if _, err := FromCOO(4, 10, us, vs, ws); err != nil {
		t.Fatal(err)
	}
	for i := range us {
		if us[i] != usOrig[i] || vs[i] != vsOrig[i] || ws[i] != wsOrig[i] {
			t.Fatal("FromCOO mutated its input")
		}
	}
}

// FuzzFromCOO feeds arbitrary triple encodings through both builds and
// demands bit-identical CSR output (or matching rejection).
func FuzzFromCOO(f *testing.F) {
	f.Add([]byte{}, uint16(4), uint16(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(1), uint16(1))
	// A couple of duplicate-heavy seeds.
	f.Add([]byte{0, 1, 0, 2, 10, 0, 1, 0, 2, 20, 0, 1, 0, 2, 30}, uint16(3), uint16(3))
	f.Add([]byte{1, 0, 0, 3, 1, 0, 0, 0, 0, 2, 0, 0, 1, 0, 4}, uint16(2), uint16(5))
	f.Fuzz(func(t *testing.T, raw []byte, rows16, cols16 uint16) {
		rows := int(rows16%512) + 1
		cols := int(cols16%512) + 1
		// Decode 5-byte records: u(2) v(2) w(1).
		n := len(raw) / 5
		us := make([]uint32, n)
		vs := make([]uint32, n)
		ws := make([]float64, n)
		for i := 0; i < n; i++ {
			rec := raw[i*5:]
			us[i] = uint32(binary.LittleEndian.Uint16(rec[0:2]))
			vs[i] = uint32(binary.LittleEndian.Uint16(rec[2:4]))
			ws[i] = float64(int(rec[4])-128) / 4
		}
		want, ok := naiveFromCOO(rows, cols, us, vs, ws)
		got, err := FromCOO(rows, cols, us, vs, ws)
		if !ok {
			if err == nil {
				t.Fatal("out-of-range input accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("in-range input rejected: %v", err)
		}
		assertCSREqual(t, got, want)
	})
}

// TestFromCSRPartsValidates: the zero-copy constructor must accept grouped,
// column-sorted parts and reject everything else — unsorted or duplicate
// columns, out-of-range columns, bad row-pointer endpoints — since every
// consumer (At's binary search, the determinism contract) relies on a CSR
// being column-sorted by construction.
func TestFromCSRPartsValidates(t *testing.T) {
	rowPtr := []int64{0, 3, 3, 5}
	colIdx := []uint32{2, 4, 7, 0, 1}
	val := []float64{2, 3, 1, 5, 4}
	m, err := FromCSRParts(3, 8, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[[2]int]float64{
		{0, 7}: 1, {0, 2}: 2, {0, 4}: 3, {2, 1}: 4, {2, 0}: 5, {0, 3}: 0, {1, 0}: 0,
	}
	for k, want := range checks {
		if got := m.At(k[0], uint32(k[1])); got != want {
			t.Fatalf("At(%d,%d)=%g want %g", k[0], k[1], got, want)
		}
	}
	for name, bad := range map[string][]uint32{
		"unsorted columns":    {7, 2, 4, 1, 0},
		"duplicate column":    {2, 2, 7, 0, 1},
		"out-of-range column": {2, 4, 99, 0, 1},
	} {
		if _, err := FromCSRParts(3, 8, rowPtr, bad, val); err == nil {
			t.Fatalf("FromCSRParts accepted %s", name)
		}
	}
	if _, err := FromCSRParts(3, 8, []int64{0, 3, 3, 4}, colIdx, val); err == nil {
		t.Fatal("FromCSRParts accepted bad rowPtr endpoint")
	}
	tr := m.Transpose()
	for r := 0; r < tr.NumRows; r++ {
		for p := tr.RowPtr[r] + 1; p < tr.RowPtr[r+1]; p++ {
			if tr.ColIdx[p] <= tr.ColIdx[p-1] {
				t.Fatalf("transpose row %d not strictly ascending", r)
			}
		}
	}
}

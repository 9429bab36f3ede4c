package dense

import "fmt"

// SolveUpper solves R·X = B for an upper-triangular k×k matrix R and k×q
// right-hand side B by back substitution, returning X (k×q). Entries of R
// below the diagonal are not read, and neither input is modified. The
// substitution is sequential, so the result is bit-identical for every
// worker count. In the embedding pipeline it only ever runs on the R factor
// of the single-pass sketch's small k×k core problem (k = d + oversample),
// where O(k²·q) is negligible next to the streaming pass that produced the
// operands.
//
// Returns an error if R is exactly singular (a zero on the diagonal);
// near-singular systems solve but amplify rounding.
func SolveUpper(r, b *Matrix) (*Matrix, error) {
	if r.Rows != r.Cols {
		panic(fmt.Sprintf("dense: SolveUpper requires a square system, got %dx%d", r.Rows, r.Cols))
	}
	if b.Rows != r.Rows {
		panic(fmt.Sprintf("dense: SolveUpper shape mismatch (%dx%d)·X = (%dx%d)",
			r.Rows, r.Cols, b.Rows, b.Cols))
	}
	k := r.Rows
	for i := 0; i < k; i++ {
		if r.At(i, i) == 0 {
			return nil, fmt.Errorf("dense: singular system (pivot column %d)", i)
		}
	}
	x := b.Clone()
	for i := k - 1; i >= 0; i-- {
		xi := x.Row(i)
		ri := r.Row(i)
		for c := i + 1; c < k; c++ {
			f := ri[c]
			if f == 0 {
				continue
			}
			xc := x.Row(c)
			for j, v := range xc {
				xi[j] -= f * v
			}
		}
		inv := 1 / ri[i]
		for j := range xi {
			xi[j] *= inv
		}
	}
	return x, nil
}

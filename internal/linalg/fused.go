package linalg

import "math"

// This file holds the unrolled fused Aᵀλ → exp column pass, one of the
// solver's two hot kernels (the A·x row pass is MulVecRange). It unrolls
// the dot-product loop four entries per trip but keeps a single
// accumulator updated in ascending entry order, so the floating-point
// additions happen in exactly the order of the naive loop — the result is
// bit-identical, the win comes purely from amortized loop overhead and
// from hoisting the entry slices once per column (the three-index
// re-slice pins the value and index slices to equal length, which lets
// the compiler drop the per-entry bounds checks).

// ExpDots computes dst[c] = exp((Aᵀx)_c − 1) for every column c in
// [lo, hi) and returns the sum of those entries in ascending column
// order — one block of the solver's fused Aᵀλ → exp → partition pass.
// Bit-identical to the naive per-entry loop (single in-order
// accumulator).
func (v ColView) ExpDots(x, dst []float64, lo, hi int) float64 {
	colPtr := v.t.colPtr
	var sum float64
	for c := lo; c < hi; c++ {
		p, q := colPtr[c], colPtr[c+1]
		vals := v.t.vals[p:q]
		rows := v.t.rowIdx[p:q:q]
		var s float64
		k := 0
		for ; k+4 <= len(vals); k += 4 {
			s += vals[k] * x[rows[k]]
			s += vals[k+1] * x[rows[k+1]]
			s += vals[k+2] * x[rows[k+2]]
			s += vals[k+3] * x[rows[k+3]]
		}
		for ; k < len(vals); k++ {
			s += vals[k] * x[rows[k]]
		}
		e := math.Exp(s - 1)
		dst[c] = e
		sum += e
	}
	return sum
}

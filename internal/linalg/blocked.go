package linalg

import "fmt"

// Runner executes n independent tasks fn(0), …, fn(n−1), possibly
// concurrently, and returns only after every call has completed. A nil
// Runner means serial execution. The blocked kernels below hand a Runner
// one task per block; a closure over pool.(*Pool).ParallelFor satisfies
// it, which is how the solver threads its shared worker pool down into
// the matrix kernels without linalg depending on the pool package.
type Runner func(n int, fn func(i int))

// blockLen is the fixed block length of every parallel kernel partition.
// The partition is a function of the problem shape ONLY — never of the
// worker count — which is what makes the parallel kernels bit-identical
// to the serial ones: each block's result is computed in the same order
// by whichever goroutine picks it up, and per-block partial sums are
// combined in ascending block order afterwards. 512 entries keeps a
// block's input and output well inside L1 while giving enough blocks to
// balance load on the shapes the solver produces.
const blockLen = 512

// NumBlocks reports how many fixed-length blocks cover n entries.
func NumBlocks(n int) int {
	return (n + blockLen - 1) / blockLen
}

// BlockBounds returns the half-open entry range [lo, hi) of block b over
// n entries. Every block except the last spans exactly blockLen entries.
func BlockBounds(b, n int) (lo, hi int) {
	lo = b * blockLen
	hi = lo + blockLen
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ColView is a read-only column-major (CSC) view of a CSR matrix, backed
// by the same cached transpose MulTVec gathers from. It exists so
// callers fusing per-column work (the solver's Aᵀλ → exp pass) can reach
// single columns without reimplementing the layout. Entries within a
// column appear in ascending row order — the counting-sort build
// preserves row order — so a column dot product visits rows in one fixed
// order that depends only on the matrix, never on which goroutine
// evaluates it.
type ColView struct {
	m *CSR
	t *cscLayout
}

// Columns returns the CSC view, building the cached transpose on first
// use. Like MulTVec, it must not race with AppendRow.
func (m *CSR) Columns() ColView {
	return ColView{m: m, t: m.transpose()}
}

// Cols reports the column count of the underlying matrix.
func (v ColView) Cols() int { return v.m.numCols }

// Col returns the row indices (ascending) and values of column c. The
// slices alias the view's storage and must not be modified.
func (v ColView) Col(c int) (rows []int, vals []float64) {
	lo, hi := v.t.colPtr[c], v.t.colPtr[c+1]
	return v.t.rowIdx[lo:hi:hi], v.t.vals[lo:hi:hi]
}

// Dot returns the dot product of column c with x: (Aᵀx)_c.
func (v ColView) Dot(c int, x []float64) float64 {
	lo, hi := v.t.colPtr[c], v.t.colPtr[c+1]
	vals, rows := v.t.vals[lo:hi], v.t.rowIdx[lo:hi:hi]
	var s float64
	for k, val := range vals {
		s += val * x[rows[k]]
	}
	return s
}

// MulVecRange computes y[r] = (A x)_r for rows lo ≤ r < hi, leaving the
// rest of y untouched. Each output row is an independent dot product, so
// disjoint ranges compose into a full MulVec bit-identically regardless
// of which goroutine computes which range. The dot loop is unrolled with
// a single in-order accumulator (see fused.go), so the unrolling changes
// nothing at bit level.
func (m *CSR) MulVecRange(x, y []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		p, q := m.rowPtr[r], m.rowPtr[r+1]
		vals, cols := m.vals[p:q], m.colIdx[p:q:q]
		var s float64
		k := 0
		for ; k+4 <= len(vals); k += 4 {
			s += vals[k] * x[cols[k]]
			s += vals[k+1] * x[cols[k+1]]
			s += vals[k+2] * x[cols[k+2]]
			s += vals[k+3] * x[cols[k+3]]
		}
		for ; k < len(vals); k++ {
			s += vals[k] * x[cols[k]]
		}
		y[r] = s
	}
}

// MulVecBlocks computes y = A x like MulVec, but splits the rows into
// the fixed block partition and runs one task per block on run. Rows are
// disjoint element-wise outputs, so the result is bit-identical to
// MulVec at any worker count. A nil run falls back to the serial kernel.
func (m *CSR) MulVecBlocks(x, y []float64, run Runner) {
	if len(x) != m.numCols || len(y) != m.Rows() {
		panic(fmt.Sprintf("linalg: MulVecBlocks dims: x %d (want %d), y %d (want %d)", len(x), m.numCols, len(y), m.Rows()))
	}
	rows := m.Rows()
	if run == nil {
		m.MulVecRange(x, y, 0, rows)
		return
	}
	run(NumBlocks(rows), func(b int) {
		lo, hi := BlockBounds(b, rows)
		m.MulVecRange(x, y, lo, hi)
	})
}

// MulTVecBlocks computes y = Aᵀ x over the CSC layout, one task per
// column block. Each y[c] is a single contiguous gather — an independent
// output element — so the result is bit-identical to the serial gather
// kernel at any worker count.
// Unlike MulTVec it always uses the gather layout: the blocked kernel
// exists for solver-scale matrices, which sit far beyond the scatter
// heuristic's break-even anyway.
func (m *CSR) MulTVecBlocks(x, y []float64, run Runner) {
	if len(x) != m.Rows() || len(y) != m.numCols {
		panic(fmt.Sprintf("linalg: MulTVecBlocks dims: x %d (want %d), y %d (want %d)", len(x), m.Rows(), len(y), m.numCols))
	}
	t := m.transpose()
	if run == nil {
		m.mulTVecGather(t, x, y)
		return
	}
	v := ColView{m: m, t: t}
	n := m.numCols
	run(NumBlocks(n), func(b int) {
		lo, hi := BlockBounds(b, n)
		for c := lo; c < hi; c++ {
			y[c] = v.Dot(c, x)
		}
	})
}

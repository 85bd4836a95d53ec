package linalg

import (
	"errors"
	"fmt"
	"math"
)

// The Cholesky kernels below work on a symmetric matrix stored as its
// packed lower triangle, row by row: entry (i, j), j ≤ i, of an n×n
// matrix lives at PackedRow(i)+j, and the whole triangle takes
// PackedLen(n) floats. Row-wise packing keeps every inner loop of the
// factorization and of both substitutions a dot product or axpy over
// contiguous memory, and halves the storage of a dense square.

// PackedRow is the offset of row i in a packed lower triangle.
func PackedRow(i int) int { return i * (i + 1) / 2 }

// PackedLen is the length of an n×n matrix's packed lower triangle.
func PackedLen(n int) int { return PackedRow(n) }

// Cholesky factors the symmetric positive-semidefinite matrix a (packed
// lower triangle, n×n) in place into its lower factor L, a = L·Lᵀ. A
// pivot that is not above tol times its diagonal entry marks its row as
// a combination of the rows before it (in exact arithmetic the pivot
// would be 0): Cholesky zeroes that row and column of L and counts it in
// the returned number of dropped rows. ForwardSubst and BackSubst set the
// matching unknown to 0, which solves a consistent singular system
// exactly — the dropped row's equation follows from the others.
func Cholesky(a []float64, n int, tol float64) (dropped int) {
	_, dropped = cholesky(a, n, tol, true)
	return dropped
}

// cholesky is the row-oriented (Cholesky–Banachiewicz) factorization.
// Without drop it stops at the first failing pivot and returns its row;
// bad is −1 when every pivot passed.
func cholesky(a []float64, n int, tol float64, drop bool) (bad, dropped int) {
	bad = -1
	for i := 0; i < n; i++ {
		ri := a[PackedRow(i) : PackedRow(i)+i+1]
		for j := 0; j < i; j++ {
			rj := a[PackedRow(j) : PackedRow(j)+j+1]
			if rj[j] == 0 {
				ri[j] = 0 // column of a dropped row
				continue
			}
			ri[j] = (ri[j] - dot4(ri[:j], rj[:j])) / rj[j]
		}
		diag := ri[i]
		if p := diag - dot4(ri[:i], ri[:i]); p > tol*diag {
			ri[i] = math.Sqrt(p)
			continue
		}
		if bad < 0 {
			bad = i
		}
		if !drop {
			return bad, dropped
		}
		clear(ri)
		dropped++
	}
	return bad, dropped
}

// ForwardSubst solves L·z = b in place for the packed factor l of
// Cholesky; the unknowns of dropped rows are set to 0.
func ForwardSubst(l []float64, n int, b []float64) {
	b = b[:n]
	for i := range b {
		row := l[PackedRow(i) : PackedRow(i)+i+1]
		if row[i] == 0 {
			b[i] = 0
			continue
		}
		b[i] = (b[i] - dot4(row[:i], b[:i])) / row[i]
	}
}

// BackSubst solves Lᵀ·y = z in place for the packed factor l of
// Cholesky; the unknowns of dropped rows are set to 0.
func BackSubst(l []float64, n int, z []float64) {
	z = z[:n]
	for i := n - 1; i >= 0; i-- {
		row := l[PackedRow(i) : PackedRow(i)+i+1]
		if row[i] == 0 {
			z[i] = 0
			continue
		}
		z[i] /= row[i]
		yi := z[i]
		head := z[:i]
		for j, v := range row[:i] {
			head[j] -= v * yi
		}
	}
}

// ErrNotPositiveDefinite is SolveSPD's report of a pivot that failed its
// tolerance. It is a fixed value, so a caller that retries with a ridge
// (Newton's Schur complement) allocates nothing per failed try.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// SolveSPD solves the symmetric positive-definite system a·y = b in place
// by Cholesky factorization. a is the packed lower triangle of an n×n
// matrix, n = len(b), and is overwritten with the factor; b is
// overwritten with the solution, which is also returned. It returns
// ErrNotPositiveDefinite, with the factorization abandoned, at the first
// pivot that is not above tol times its diagonal entry; a caller with a
// singular or indefinite matrix adds a ridge to the diagonal and tries
// again.
func SolveSPD(a, b []float64, tol float64) ([]float64, error) {
	n := len(b)
	if len(a) != PackedLen(n) {
		return nil, fmt.Errorf("linalg: SolveSPD dims: packed matrix %d, want %d for rhs %d", len(a), PackedLen(n), n)
	}
	if bad, _ := cholesky(a, n, tol, false); bad >= 0 {
		return nil, ErrNotPositiveDefinite
	}
	ForwardSubst(a, n, b)
	BackSubst(a, n, b)
	return b, nil
}

// dot4 is Dot without the length check, unrolled over four independent
// accumulators for the factorization's inner loops. The summation order
// is fixed by the length alone, so results are reproducible, but they
// differ in the last bits from the strictly sequential Dot.
func dot4(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveSPDIdentity(t *testing.T) {
	h := []float64{1, 0, 1}
	b := []float64{3, -4}
	y, err := SolveSPD(h, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-3) > 1e-12 || math.Abs(y[1]+4) > 1e-12 {
		t.Fatalf("y = %v", y)
	}
}

func TestSolveSPDKnownSystem(t *testing.T) {
	// H = [[4, 2], [2, 3]], b = [2, 5] → y = [-0.5, 2].
	h := []float64{4, 2, 3}
	b := []float64{2, 5}
	y, err := SolveSPD(h, b, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]+0.5) > 1e-12 || math.Abs(y[1]-2) > 1e-12 {
		t.Fatalf("y = %v, want [-0.5, 2]", y)
	}
}

func TestSolveSPDNotPositiveDefinite(t *testing.T) {
	h := []float64{1, 2, 1} // eigenvalues 3, -1
	if _, err := SolveSPD(h, []float64{1, 1}, 1e-12); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	zero := []float64{0}
	if _, err := SolveSPD(zero, []float64{1}, 1e-12); err == nil {
		t.Fatal("expected singular error")
	}
	// Singular in exact arithmetic, with a roundoff-sized positive pivot:
	// the relative pivot test still refuses it.
	dup := []float64{1, 1, 1 + 1e-15}
	if _, err := SolveSPD(dup, []float64{1, 1}, 1e-12); err == nil {
		t.Fatal("expected a roundoff pivot to fail the tolerance")
	}
}

func TestSolveSPDDimErrors(t *testing.T) {
	if _, err := SolveSPD([]float64{1, 0, 1}, []float64{1}, 1e-12); err == nil {
		t.Fatal("expected rhs dim error")
	}
	if _, err := SolveSPD([]float64{1, 0}, []float64{1, 1}, 1e-12); err == nil {
		t.Fatal("expected packed length error")
	}
	if y, err := SolveSPD(nil, nil, 1e-12); err != nil || len(y) != 0 {
		t.Fatalf("empty system: %v %v", y, err)
	}
}

// TestSolveSPDRandom builds random SPD matrices H = MᵀM + I, packs their
// lower triangles and checks the computed solution.
func TestSolveSPDRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64()
			}
		}
		h := make([]float64, PackedLen(n))
		orig := make([][]float64, n)
		for i := range orig {
			orig[i] = make([]float64, n)
			for j := range orig[i] {
				var s float64
				for k := 0; k < n; k++ {
					s += m[k][i] * m[k][j]
				}
				if i == j {
					s++
				}
				if j <= i {
					h[PackedRow(i)+j] = s
				}
				orig[i][j] = s
			}
		}
		b := make([]float64, n)
		want := make([]float64, n)
		for i := range b {
			want[i] = rng.NormFloat64()
		}
		for i := range b {
			for j := range want {
				b[i] += orig[i][j] * want[j]
			}
		}
		y, err := SolveSPD(h, b, 1e-12)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: y[%d] = %g, want %g", trial, i, y[i], want[i])
			}
		}
	}
}

// TestCholeskyDropsDependentRows factors a positive-semidefinite matrix
// is the Gram matrix of three vectors, the third the sum of the first
// two: Cholesky drops exactly that row, and the substitutions solve the
// consistent system H·y = H·w with y's dropped entry at 0.
func TestCholeskyDropsDependentRows(t *testing.T) {
	m := [][]float64{{1, 0, 2, 1}, {0, 1, 1, 3}, {1, 1, 3, 4}}
	n := len(m)
	full := make([][]float64, n)
	h := make([]float64, PackedLen(n))
	for i := range m {
		full[i] = make([]float64, n)
		for j := range m {
			full[i][j] = Dot(m[i], m[j])
			if j <= i {
				h[PackedRow(i)+j] = full[i][j]
			}
		}
	}
	w := []float64{0.5, -1, 2}
	b := make([]float64, n)
	for i := range b {
		b[i] = Dot(full[i], w)
	}
	if dropped := Cholesky(h, n, 1e-12); dropped != 1 {
		t.Fatalf("dropped %d rows, want 1", dropped)
	}
	y := append([]float64(nil), b...)
	ForwardSubst(h, n, y)
	BackSubst(h, n, y)
	if y[2] != 0 {
		t.Fatalf("dropped unknown = %g, want 0", y[2])
	}
	for i := range b {
		if got := Dot(full[i], y); math.Abs(got-b[i]) > 1e-12*(1+math.Abs(b[i])) {
			t.Fatalf("row %d: H·y = %g, want %g", i, got, b[i])
		}
	}
}

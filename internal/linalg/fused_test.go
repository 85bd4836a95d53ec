package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The matrices come from sparse_test.go's randomCSR: empty rows,
// duplicate columns and zero values included, with row lengths covering
// every unroll remainder (0–3 tail entries).

// TestExpDotsBitIdentical: the unrolled fused kernel must reproduce the
// naive per-column Dot → exp loop bit for bit — it is the solver's only
// column kernel.
func TestExpDotsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(60)
		m := randomCSR(rng, rows, cols)
		v := m.Columns()
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, cols)
		var wantSum float64
		for c := 0; c < cols; c++ {
			e := math.Exp(v.Dot(c, x) - 1)
			want[c] = e
			wantSum += e
		}
		got := make([]float64, cols)
		gotSum := v.ExpDots(x, got, 0, cols)
		if gotSum != wantSum {
			t.Fatalf("trial %d: ExpDots sum %v, naive %v", trial, gotSum, wantSum)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("trial %d col %d: ExpDots %v, naive %v", trial, c, got[c], want[c])
			}
		}
		// Split ranges must compose to the same values bit-identically.
		mid := cols / 2
		split := make([]float64, cols)
		s := v.ExpDots(x, split, 0, mid) + v.ExpDots(x, split, mid, cols)
		for c := range want {
			if split[c] != want[c] {
				t.Fatalf("trial %d col %d: split ExpDots %v, naive %v", trial, c, split[c], want[c])
			}
		}
		_ = s
	}
}

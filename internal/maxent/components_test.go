package maxent

import (
	"context"
	"math"
	"reflect"
	"testing"

	"privacymaxent/internal/constraint"
)

// TestZeroCoefficientCoupling: a coupling row that lists a term with a
// zero coefficient puts no constraint on that term's bucket, so the
// decomposed solve gives the posterior it gives without the entry, and
// the system is satisfied to the solver's tolerance. The row still
// links the two buckets, so the decomposition must hold both.
func TestZeroCoefficientCoupling(t *testing.T) {
	// Ten times the default gradient tolerance: with the entry, the
	// merged component's line search stops at a violation near 1e-9.
	const tol = 1e-8
	solve := func(zeroEntry bool) *Solution {
		_, _, sp, sys := paperSystem(t)
		row := constraint.Constraint{
			Kind: constraint.Knowledge, Label: "k",
			Terms: []int{sp.TermsInBucket(0)[0]}, Coeffs: []float64{1}, RHS: 0.05,
		}
		if zeroEntry {
			row.Terms = append(row.Terms, sp.TermsInBucket(1)[0])
			row.Coeffs = append(row.Coeffs, 0)
		}
		sys.MustAdd(row)
		sol, err := SolveContext(context.Background(), sys, Options{Decompose: true})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.MaxViolation > tol {
			t.Fatalf("zero entry %v: max violation %g", zeroEntry, sol.Stats.MaxViolation)
		}
		return sol
	}
	want, got := solve(false), solve(true)
	for i := range want.X {
		if math.Abs(got.X[i]-want.X[i]) > tol {
			t.Fatalf("term %d: %g with the zero entry, %g without", i, got.X[i], want.X[i])
		}
	}
}

// TestSolverComponentsMatchDiffer: the solver decomposes a system into
// exactly the components the delta differ reports, row for row, and
// both are its connected components, each rooted at one of its own
// buckets, also when a coupling row lists a term with a zero
// coefficient.
func TestSolverComponentsMatchDiffer(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	// Buckets 1 and 2 are linked by a row whose bucket-2 entry is zero;
	// bucket 0 has a row of its own.
	sys.MustAdd(constraint.Constraint{
		Kind: constraint.Knowledge, Label: "k12",
		Terms: []int{sp.TermsInBucket(1)[0], sp.TermsInBucket(2)[0]}, Coeffs: []float64{1, 0}, RHS: 0.05,
	})
	sys.MustAdd(constraint.Constraint{
		Kind: constraint.Knowledge, Label: "k0",
		Terms: []int{sp.TermsInBucket(0)[0]}, Coeffs: []float64{1}, RHS: 0.05,
	})
	diff := constraint.DiffSystems(nil, sys)
	var buckets [][]int
	for _, cd := range diff.Components {
		buckets = append(buckets, cd.Buckets)
		in := false
		for _, b := range cd.Buckets {
			in = in || b == cd.Root
		}
		if !in {
			t.Fatalf("component rooted at bucket %d holds buckets %v", cd.Root, cd.Buckets)
		}
	}
	if want := [][]int{{0}, {1, 2}}; !reflect.DeepEqual(buckets, want) {
		t.Fatalf("differ components hold buckets %v, want %v", buckets, want)
	}
	comps := componentRows(sys, constraint.TouchedBuckets(sys))
	if len(comps) != len(diff.Components) {
		t.Fatalf("solver has %d components, differ %d", len(comps), len(diff.Components))
	}
	for i, cd := range diff.Components {
		var got, want []string
		for _, r := range comps[i].rows {
			got = append(got, r.label)
		}
		for _, ri := range cd.Rows {
			want = append(want, sys.At(ri).Label)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("component %d: solver rows %v, differ rows %v", i, got, want)
		}
	}
}

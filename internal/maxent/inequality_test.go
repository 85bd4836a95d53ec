package maxent

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/solver"
)

// ineqKnowledgeTerm builds the terms/coeffs of P(q3, s3) = P(q3,s3,1) +
// P(q3,s3,2) over the paper space.
func ineqKnowledgeTerm(t *testing.T, sp *constraint.Space) []int {
	t.Helper()
	var terms []int
	for b := 0; b < 2; b++ {
		id, ok := sp.Index(constraint.Term{QID: 2, SA: 2, Bucket: b})
		if !ok {
			t.Fatal("term missing")
		}
		terms = append(terms, id)
	}
	return terms
}

func TestInequalityInactiveBoxMatchesUnconstrained(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	terms := ineqKnowledgeTerm(t, sp)
	// The closed form puts P(q3,s3) = P(q3,s3,1)+P(q3,s3,2) =
	// 0.1*0.2/0.4 + 0.1*(1/10)/0.3 = 0.05 + 0.0333... ≈ 0.0833. A box
	// [0, 0.5] does not bind.
	ineq := Inequality{Terms: terms, Coeffs: []float64{1, 1}, Lo: 0, Hi: 0.5}
	sol, err := SolveWithInequalitiesContext(context.Background(), sys, []Inequality{ineq}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Uniform(sp)
	for i := range want {
		if math.Abs(sol.X[i]-want[i]) > 1e-5 {
			t.Fatalf("x[%d] = %g, want %g (box should be inactive)", i, sol.X[i], want[i])
		}
	}
	if sol.Stats.MaxViolation > 1e-6 {
		t.Fatalf("violation %g", sol.Stats.MaxViolation)
	}
}

func TestInequalityBindingUpperBound(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	terms := ineqKnowledgeTerm(t, sp)
	// Force P(q3,s3) ≤ 0.04, below the unconstrained 0.0833: the bound
	// must bind (solution sits at 0.04 within tolerance).
	ineq := Inequality{Terms: terms, Coeffs: []float64{1, 1}, Lo: 0, Hi: 0.04}
	sol, err := SolveWithInequalitiesContext(context.Background(), sys, []Inequality{ineq}, Options{Solver: solver.Options{MaxIterations: 20000, GradTol: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	got := sol.X[terms[0]] + sol.X[terms[1]]
	if got > 0.04+1e-6 {
		t.Fatalf("P(q3,s3) = %g, exceeds bound 0.04", got)
	}
	if got < 0.04-1e-4 {
		t.Fatalf("P(q3,s3) = %g, bound should bind near 0.04", got)
	}
	if sol.Stats.MaxViolation > 1e-5 {
		t.Fatalf("violation %g", sol.Stats.MaxViolation)
	}
}

func TestInequalityTightBoxMatchesEquality(t *testing.T) {
	// Lo = Hi = 0.1 must reproduce the equality-constrained solution of
	// the Sec. 5.5 example P(s3|q3) = 0.5.
	tbl, d, sp, sysIneq := paperSystem(t)
	terms := ineqKnowledgeTerm(t, sp)
	ineq := Inequality{Terms: terms, Coeffs: []float64{1, 1}, Lo: 0.1, Hi: 0.1}
	solIneq, err := SolveWithInequalitiesContext(context.Background(), sysIneq, []Inequality{ineq}, Options{Solver: solver.Options{MaxIterations: 50000, GradTol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}

	_, _, _, sysEq := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sysEq, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
		t.Fatal(err)
	}
	solEq, err := SolveContext(context.Background(), sysEq, Options{Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range solEq.X {
		if math.Abs(solIneq.X[i]-solEq.X[i]) > 1e-4 {
			t.Fatalf("x[%d]: inequality %g vs equality %g", i, solIneq.X[i], solEq.X[i])
		}
	}
}

func TestVagueKnowledge(t *testing.T) {
	tbl, d, sp, sys := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	k := knowledgeFor(tbl, d, 2, s3, 0.9)
	// "P(s3|q3) is about 0.9, give or take 0.1" — the box is
	// [0.8, 1.0]·P(q3) = [0.16, 0.2].
	ineq, err := VagueKnowledge(sp, k, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ineq.Lo-0.16) > 1e-12 || math.Abs(ineq.Hi-0.2) > 1e-12 {
		t.Fatalf("box = [%g, %g], want [0.16, 0.2]", ineq.Lo, ineq.Hi)
	}
	sol, err := SolveWithInequalitiesContext(context.Background(), sys, []Inequality{ineq}, Options{Solver: solver.Options{MaxIterations: 20000}})
	if err != nil {
		t.Fatal(err)
	}
	got := sol.X[ineq.Terms[0]] + sol.X[ineq.Terms[1]]
	if got < 0.16-1e-4 || got > 0.2+1e-6 {
		t.Fatalf("P(q3,s3) = %g, want within [0.16, 0.2]", got)
	}
	// The unconstrained value 0.0833 is below the box: the lower bound
	// must bind.
	if got > 0.17 {
		t.Fatalf("P(q3,s3) = %g, expected to sit near the binding lower bound 0.16", got)
	}
}

func TestVagueKnowledgeZeroProbability(t *testing.T) {
	tbl, d, sp, _ := paperSystem(t)
	s1 := tbl.Schema().SA().MustCode("Breast Cancer")
	k := knowledgeFor(tbl, d, 1, s1, 0)
	ineq, err := VagueKnowledge(sp, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ineq.Lo != 0 || ineq.Hi != 0 {
		t.Fatalf("box = [%g, %g], want [0, 0]", ineq.Lo, ineq.Hi)
	}
	// Non-zero vagueness around zero: [0, ε]·P(Qv).
	ineq, err = VagueKnowledge(sp, k, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if ineq.Lo != 0 || math.Abs(ineq.Hi-0.05) > 1e-12 {
		t.Fatalf("box = [%g, %g], want [0, 0.05] (= 0.25 * P(q2) = 0.25*0.2)", ineq.Lo, ineq.Hi)
	}
	if _, err := VagueKnowledge(sp, k, -1); err == nil {
		t.Fatal("expected error for negative vagueness")
	}
}

func TestInequalityValidation(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	terms := ineqKnowledgeTerm(t, sp)
	cases := []Inequality{
		{Terms: terms, Coeffs: []float64{1}, Lo: 0, Hi: 1},      // arity
		{Terms: []int{-1}, Coeffs: []float64{1}, Lo: 0, Hi: 1},  // range
		{Terms: terms, Coeffs: []float64{1, 1}, Lo: 1, Hi: 0.5}, // empty box
	}
	for i, q := range cases {
		if _, err := SolveWithInequalitiesContext(context.Background(), sys, []Inequality{q}, Options{}); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestInequalityNoInequalitiesMatchesSolve(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	sol, err := SolveWithInequalitiesContext(context.Background(), sys, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Uniform(sp)
	for i := range want {
		if math.Abs(sol.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, sol.X[i], want[i])
		}
	}
}

// TestBoxedIterationsCapped: a boxed solve that uses up its iteration
// budget reports exactly MaxIterations, like the other algorithms.
func TestBoxedIterationsCapped(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	ineq := Inequality{Terms: ineqKnowledgeTerm(t, sp), Coeffs: []float64{1, 1}, Lo: 0, Hi: 0.04}
	for _, limit := range []int{1, 3, 5} {
		sol, err := SolveWithInequalitiesContext(context.Background(), sys, []Inequality{ineq}, Options{Solver: solver.Options{MaxIterations: limit, GradTol: 1e-12}})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.Converged || sol.Stats.Iterations != limit {
			t.Fatalf("cap %d: iterations = %d (converged=%v), want the cap", limit, sol.Stats.Iterations, sol.Stats.Converged)
		}
	}
}

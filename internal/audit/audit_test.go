package audit

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/solver"
)

// paperSolve builds the paper's running example with the Sec. 5.5
// knowledge P(s3 | q3) = 0.5 and solves it.
func paperSolve(t *testing.T, opts maxent.Options) (*constraint.System, *maxent.Solution) {
	t.Helper()
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	k := constraint.DistributionKnowledge{
		Attrs:  append([]int(nil), tbl.Schema().QIIndices()...),
		Values: append([]int(nil), d.Universe().Codes(2)...),
		SA:     s3,
		P:      0.5,
	}
	if err := constraint.AddKnowledge(sys, k); err != nil {
		t.Fatal(err)
	}
	sol, err := maxent.SolveContext(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sol
}

func TestAuditHealthySolve(t *testing.T) {
	sys, sol := paperSolve(t, maxent.Options{CaptureTrace: true,
		Solver: solver.Options{GradTol: 1e-8}})
	a := New(sys, sol, Options{})

	if !a.Converged || !a.Feasible {
		t.Fatalf("healthy solve audited as unhealthy: %+v", a)
	}
	if a.Infeasibility != nil {
		t.Fatalf("unexpected infeasibility diagnosis: %+v", a.Infeasibility)
	}

	// Family breakdown covers the full Theorem 1–3 accounting.
	byFam := map[string]FamilySummary{}
	for _, f := range a.Families {
		byFam[f.Family] = f
	}
	for _, fam := range []string{"QI-invariant", "SA-invariant", "knowledge"} {
		f, ok := byFam[fam]
		if !ok {
			t.Fatalf("family %q missing: %+v", fam, a.Families)
		}
		if f.Rows == 0 {
			t.Fatalf("family %q has no rows", fam)
		}
		if f.Violations != 0 || f.MaxAbsResidual > 1e-6 {
			t.Fatalf("family %q not satisfied: %+v", fam, f)
		}
	}
	if f, ok := byFam["zero-invariant"]; ok && f.MaxAbsResidual != 0 {
		t.Fatalf("zero-invariants are structural, residual must be 0: %+v", f)
	}

	// The knowledge rule binds: it moves the posterior away from the
	// invariant-only solution, so its multiplier is far from zero and it
	// tops the knowledge ranking.
	if !a.HasDuals || len(a.BindingKnowledge) == 0 {
		t.Fatalf("no binding knowledge identified: %+v", a)
	}
	top := a.BindingKnowledge[0]
	if top.Family != "knowledge" || top.Lambda == 0 {
		t.Fatalf("binding knowledge row malformed: %+v", top)
	}
	if !strings.Contains(top.Label, "Pneumonia") {
		t.Fatalf("binding rule label %q does not name the knowledge", top.Label)
	}

	// Joint primal–dual optimality: the duality gap is tiny (it scales
	// with residual × multiplier, so a 1e-8 gradient tolerance puts it
	// well below 1e-6).
	if math.Abs(a.DualityGap) > 1e-6 {
		t.Fatalf("duality gap %g too large for a converged solve", a.DualityGap)
	}

	// Trajectory is globally indexed and ends at Stats.Iterations.
	if len(a.Trajectory) == 0 {
		t.Fatal("no trajectory despite CaptureTrace")
	}
	last := a.Trajectory[len(a.Trajectory)-1]
	if last.Index != sol.Stats.Iterations {
		t.Fatalf("final trajectory index %d != iterations %d", last.Index, sol.Stats.Iterations)
	}

	if a.Entropy <= 0 || math.Abs(a.EntropyBits-a.Entropy/math.Ln2) > 1e-12 {
		t.Fatalf("entropy bookkeeping wrong: %g nats, %g bits", a.Entropy, a.EntropyBits)
	}
	if len(a.TopViolations) == 0 {
		t.Fatal("top violations should list rows even when tiny")
	}
}

func TestAuditUnconvergedSolve(t *testing.T) {
	sys, sol := paperSolve(t, maxent.Options{
		CaptureTrace: true,
		Solver:       solver.Options{MaxIterations: 2},
	})
	if sol.Stats.Converged {
		t.Skip("2 iterations unexpectedly converged")
	}
	a := New(sys, sol, Options{})
	if a.Converged {
		t.Fatal("audit lost the unconverged flag")
	}
	if a.Infeasibility == nil {
		t.Fatal("unconverged solve must carry an infeasibility diagnosis")
	}
	if !strings.Contains(a.Infeasibility.Reason, "converge") {
		t.Fatalf("reason %q does not mention convergence", a.Infeasibility.Reason)
	}
	if !a.Feasible && len(a.Infeasibility.MostViolated) == 0 {
		t.Fatal("violating solve must list most-violated rows")
	}
	for _, r := range a.Infeasibility.MostViolated {
		if r.Label == "" || math.Abs(r.Residual) <= a.Tolerance {
			t.Fatalf("most-violated row malformed: %+v", r)
		}
	}
	// The trajectory still ends at the iteration budget.
	if len(a.Trajectory) != sol.Stats.Iterations {
		t.Fatalf("trajectory length %d != iterations %d", len(a.Trajectory), sol.Stats.Iterations)
	}
}

func TestAuditRoundTrip(t *testing.T) {
	sys, sol := paperSolve(t, maxent.Options{CaptureTrace: true})
	a := New(sys, sol, Options{Top: 3})
	path := filepath.Join(t.TempDir(), "audit.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Iterations != a.Iterations || b.Entropy != a.Entropy || len(b.Families) != len(a.Families) ||
		len(b.Trajectory) != len(a.Trajectory) || len(b.BindingKnowledge) != len(a.BindingKnowledge) {
		t.Fatalf("round trip changed the audit:\n%+v\n%+v", a, b)
	}
	if len(a.TopViolations) > 3 || len(a.TopDuals) > 3 {
		t.Fatalf("Top option not honoured: %d violations, %d duals", len(a.TopViolations), len(a.TopDuals))
	}
}

func TestAuditScalingAlgorithmNoDuals(t *testing.T) {
	sys, sol := paperSolve(t, maxent.Options{Algorithm: maxent.GIS, CaptureTrace: true,
		Solver: solver.Options{MaxIterations: 20000, GradTol: 1e-10}})
	a := New(sys, sol, Options{})
	if a.HasDuals || len(a.TopDuals) != 0 || a.DualityGap != 0 {
		t.Fatalf("GIS exposes no duals, audit claims some: %+v", a)
	}
	if len(a.Trajectory) == 0 || len(a.Trajectory) != a.Iterations {
		t.Fatalf("GIS trajectory wrong: %d points, %d iterations", len(a.Trajectory), a.Iterations)
	}
}

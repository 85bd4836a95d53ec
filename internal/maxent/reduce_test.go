package maxent

import (
	"context"
	"fmt"
	"math"
	"testing"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/constraint"
)

// The structural presolve's contract (Options.Reduce) has two halves:
// untouched buckets keep the closed-form posterior bit for bit — across
// every algorithm and every kernel worker count — and touched buckets
// converge to the same posterior the full dual finds, within solver
// tolerance. These tests pin both on the real Adult workload.
//
// The rule subsets below keep to fractional confidences (0 < P < 1).
// Certain rules (P ∈ {0, 1}) are legitimate workload — P = 0 rows
// presolve to pinned zeros, P = 1 rows push duals toward the boundary —
// but they make convergence a property of the workload rather than of
// the reduction, so the parity tests stay on the interior.

// reduceGrid is the algorithm grid the closed-form guarantee must hold
// on: a gradient method that takes the Schur path, Newton (stage 1 only,
// full dual on the surviving rows) and a scaling method (GIS, also stage
// 1 only).
var reduceGrid = []Algorithm{LBFGS, Newton, GIS}

// fractionalRules returns the mined rules whose knowledge probability is
// strictly interior, skipping the certain (P ∈ {0, 1}) ones.
func fractionalRules(t *testing.T, selected []assoc.Rule) []assoc.Rule {
	t.Helper()
	var frac []assoc.Rule
	for i := range selected {
		if p := selected[i].Knowledge().P; p > 0.05 && p < 0.95 {
			frac = append(frac, selected[i])
		}
	}
	if len(frac) < 4 {
		t.Fatalf("workload mined only %d fractional-confidence rules", len(frac))
	}
	return frac
}

// TestReduceUntouchedBucketsClosedForm: with Reduce on, every term of an
// untouched bucket equals the closed-form posterior exactly, for every
// algorithm × kernel worker combination, and the whole posterior is
// bit-identical across worker counts within one algorithm.
func TestReduceUntouchedBucketsClosedForm(t *testing.T) {
	d, selected := solveWorkload(t)
	// A handful of rules keeps the touched set small (plenty of untouched
	// buckets to check) and Newton's dense Hessian cheap.
	sys := workloadSystem(t, d, fractionalRules(t, selected)[:4])
	sp := sys.Space()
	uniform := Uniform(sp)

	touched := map[int]bool{}
	for _, b := range constraint.TouchedBuckets(sys) {
		touched[b] = true
	}
	if len(touched) == 0 || len(touched) == d.NumBuckets() {
		t.Fatalf("degenerate workload: %d/%d buckets touched", len(touched), d.NumBuckets())
	}

	for _, alg := range reduceGrid {
		var ref []float64
		for _, kw := range kernelWorkerGrid {
			name := fmt.Sprintf("%v/kw=%d", alg, kw)
			sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Reduce: true, Workers: kw})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("%s: did not converge: %s", name, sol.Stats)
			}
			if got, want := sol.Stats.EliminatedBuckets, d.NumBuckets()-len(touched); got != want {
				t.Fatalf("%s: EliminatedBuckets = %d, want %d", name, got, want)
			}
			for id := 0; id < sp.Len(); id++ {
				if touched[sp.Term(id).Bucket] {
					continue
				}
				if sol.X[id] != uniform[id] {
					t.Fatalf("%s: untouched term %d = %v, closed form %v", name, id, sol.X[id], uniform[id])
				}
			}
			if ref == nil {
				ref = sol.X
				continue
			}
			for id := range ref {
				if sol.X[id] != ref[id] {
					t.Fatalf("%s: term %d = %v, differs from kw=%d value %v",
						name, id, sol.X[id], kernelWorkerGrid[0], ref[id])
				}
			}
		}
	}
}

// TestReduceAllBucketsUntouched: the K = 0 edge case — no knowledge at
// all. Stage 1 eliminates every bucket, no numeric solve runs, and the
// posterior is the closed form bit for bit on every algorithm × worker
// combination.
func TestReduceAllBucketsUntouched(t *testing.T) {
	d, _ := solveWorkload(t)
	sys := workloadSystem(t, d, nil)
	uniform := Uniform(sys.Space())

	for _, alg := range reduceGrid {
		for _, kw := range kernelWorkerGrid {
			name := fmt.Sprintf("%v/kw=%d", alg, kw)
			sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Reduce: true, Workers: kw})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("%s: did not converge", name)
			}
			if sol.Stats.EliminatedBuckets != d.NumBuckets() {
				t.Fatalf("%s: EliminatedBuckets = %d, want all %d",
					name, sol.Stats.EliminatedBuckets, d.NumBuckets())
			}
			if sol.Stats.ReducedDualDim != 0 || sol.Stats.Iterations != 0 {
				t.Fatalf("%s: numeric solve ran (dim %d, %d iterations) on a knowledge-free system",
					name, sol.Stats.ReducedDualDim, sol.Stats.Iterations)
			}
			for id, want := range uniform {
				if sol.X[id] != want {
					t.Fatalf("%s: term %d = %v, closed form %v", name, id, sol.X[id], want)
				}
			}
		}
	}
}

// TestSchurMatchesFullDual: the Schur-reduced solve must land on the
// same posterior as the full dual within solver tolerance, with a
// sharply smaller numeric dual, full feasibility, and a complete dual
// vector (one multiplier per surviving row, eliminated rows included —
// that is what audits and warm starts consume). Both gradient
// optimizers must converge on the reduced dual itself, without the
// full-dual polish.
func TestSchurMatchesFullDual(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, fractionalRules(t, selected))

	full, err := SolveContext(context.Background(), sys, Options{Algorithm: LBFGS})
	if err != nil {
		t.Fatal(err)
	}
	// The full LBFGS dual may stall in its line search a hair above the
	// optimizer tolerance; feasibility is what anchors the comparison.
	if v := sys.MaxViolation(full.X); v > 1e-6 {
		t.Fatalf("full solve infeasible by %g", v)
	}
	fullLabels := map[string]bool{}
	for _, du := range full.Duals {
		fullLabels[du.Label] = true
	}
	for _, alg := range []Algorithm{LBFGS, SteepestDescent} {
		red, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Reduce: true})
		if err != nil {
			t.Fatal(err)
		}
		if !red.Stats.Converged {
			t.Fatalf("%s: reduced solve did not converge: %s", alg, red.Stats)
		}
		if red.Stats.ReducedDualDim >= full.Stats.ReducedDualDim {
			t.Fatalf("%s: reduced dual dim %d not smaller than full %d",
				alg, red.Stats.ReducedDualDim, full.Stats.ReducedDualDim)
		}
		if v := sys.MaxViolation(red.X); v > 1e-6 {
			t.Fatalf("%s: reduced solution violates the original system by %g", alg, v)
		}
		var worst float64
		for id := range full.X {
			if diff := math.Abs(red.X[id] - full.X[id]); diff > worst {
				worst = diff
			}
		}
		if worst > 1e-6 {
			t.Fatalf("%s: reduced posterior differs from full dual by %g", alg, worst)
		}

		redLabels := map[string]bool{}
		for _, du := range red.Duals {
			if !fullLabels[du.Label] {
				t.Fatalf("%s: reduced solve reports dual for unknown row %q", alg, du.Label)
			}
			redLabels[du.Label] = true
			if math.IsNaN(du.Lambda) || math.IsInf(du.Lambda, 0) {
				t.Fatalf("%s: non-finite dual for %q: %v", alg, du.Label, du.Lambda)
			}
		}
		// The reduced run's dual vector covers exactly its surviving rows:
		// the numeric (coupling) dimension plus the analytically eliminated
		// rows. Untouched buckets' invariant rows legitimately drop out.
		if len(redLabels) <= red.Stats.ReducedDualDim {
			t.Fatalf("%s: reduced solve reported %d duals for a %d-dimensional numeric core — eliminated rows missing",
				alg, len(redLabels), red.Stats.ReducedDualDim)
		}
	}
}

// TestReduceComposesWithDecompose: Reduce inside a decomposed solve —
// each component takes the Schur path — still matches the plain
// decomposed solve within tolerance and reports the coupling-row
// dimension.
func TestReduceComposesWithDecompose(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, fractionalRules(t, selected))

	plain, err := SolveContext(context.Background(), sys, Options{Algorithm: LBFGS, Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := sys.MaxViolation(plain.X); v > 1e-6 {
		t.Fatalf("plain decomposed solve infeasible by %g", v)
	}
	red, err := SolveContext(context.Background(), sys, Options{Algorithm: LBFGS, Decompose: true, Reduce: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !red.Stats.Converged {
		t.Fatalf("reduced decomposed solve did not converge: %s", red.Stats)
	}
	if red.Stats.ReducedDualDim >= plain.Stats.ReducedDualDim {
		t.Fatalf("reduced dual dim %d not smaller than plain decomposed %d",
			red.Stats.ReducedDualDim, plain.Stats.ReducedDualDim)
	}
	var worst float64
	for id := range plain.X {
		if diff := math.Abs(red.X[id] - plain.X[id]); diff > worst {
			worst = diff
		}
	}
	if worst > 1e-6 {
		t.Fatalf("reduced decomposed posterior differs by %g", worst)
	}
}

// TestSchurWarmStart: the reduced path consumes warm starts — coupling
// rows seed ν, eliminated rows seed their scalings — and a re-solve from
// its own duals must not take more iterations than the cold solve.
func TestSchurWarmStart(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, fractionalRules(t, selected))

	cold, err := SolveContext(context.Background(), sys, Options{Algorithm: LBFGS, Reduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Stats.Converged {
		t.Fatalf("cold reduced solve did not converge: %s", cold.Stats)
	}
	warm, err := SolveContext(context.Background(), sys, Options{Algorithm: LBFGS, Reduce: true, WarmStart: cold.Duals})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Converged {
		t.Fatal("warm-started reduced solve did not converge")
	}
	if warm.Stats.Iterations > cold.Stats.Iterations {
		t.Fatalf("warm start took %d iterations, cold took %d",
			warm.Stats.Iterations, cold.Stats.Iterations)
	}
	var worst float64
	for id := range cold.X {
		if diff := math.Abs(warm.X[id] - cold.X[id]); diff > worst {
			worst = diff
		}
	}
	if worst > 1e-8 {
		t.Fatalf("warm-started posterior differs from cold by %g", worst)
	}
}

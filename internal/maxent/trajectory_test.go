package maxent

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/solver"
)

// TestTrajectoryParityAcrossAlgorithms: every algorithm — dual (LBFGS,
// SteepestDescent, Newton) and scaling (GIS, IIS) — fills
// Solution.Trajectory with the same event shape: iterations numbered
// contiguously from 1 per component, finite objective and gradient, and
// a final entry count equal to Stats.Iterations, so audits are
// solver-agnostic.
func TestTrajectoryParityAcrossAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{LBFGS, SteepestDescent, GIS, Newton, IIS} {
		tbl, d, _, sys := paperSystem(t)
		s3 := tbl.Schema().SA().MustCode("Pneumonia")
		if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
			t.Fatal(err)
		}
		sol, err := SolveContext(context.Background(), sys, Options{
			Algorithm:    alg,
			CaptureTrace: true,
			Solver:       solver.Options{MaxIterations: 20000, GradTol: 1e-10},
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(sol.Trajectory) == 0 {
			t.Fatalf("%v: empty trajectory", alg)
		}
		if len(sol.Trajectory) != sol.Stats.Iterations {
			t.Fatalf("%v: trajectory has %d points, Stats.Iterations = %d",
				alg, len(sol.Trajectory), sol.Stats.Iterations)
		}
		for i, p := range sol.Trajectory {
			if p.Component != 0 {
				t.Fatalf("%v: undecomposed solve reported component %d", alg, p.Component)
			}
			if p.Iteration != i+1 {
				t.Fatalf("%v: iteration %d at position %d (want contiguous from 1)", alg, p.Iteration, i)
			}
			if math.IsNaN(p.Objective) || math.IsInf(p.Objective, 0) {
				t.Fatalf("%v: non-finite objective at iteration %d", alg, p.Iteration)
			}
			if math.IsNaN(p.GradNorm) || p.GradNorm < 0 {
				t.Fatalf("%v: bad grad norm %g at iteration %d", alg, p.GradNorm, p.Iteration)
			}
			if p.Step < 0 || p.LineSearchEvals < 0 {
				t.Fatalf("%v: negative line-search fields at iteration %d: %+v", alg, p.Iteration, p)
			}
		}
		// The final point reflects the converged state.
		last := sol.Trajectory[len(sol.Trajectory)-1]
		if sol.Stats.Converged && last.GradNorm > 1e-9 {
			t.Fatalf("%v: converged but final traced grad norm %g", alg, last.GradNorm)
		}
	}
}

// TestTrajectoryOffByDefault: without CaptureTrace the solve keeps its
// trace-free hot path and records nothing.
func TestTrajectoryOffByDefault(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Trajectory != nil {
		t.Fatalf("trajectory recorded without CaptureTrace: %d points", len(sol.Trajectory))
	}
}

// TestTrajectoryDecomposedComponents: a decomposed parallel solve merges
// per-component trajectories deterministically — grouped by ascending
// component, contiguous iterations within each, total length equal to the
// summed Stats.Iterations.
func TestTrajectoryDecomposedComponents(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, selected)
	sol, err := SolveContext(context.Background(), sys, Options{Decompose: true, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Components < 2 {
		t.Skipf("workload produced %d components; need ≥2", sol.Stats.Components)
	}
	if len(sol.Trajectory) != sol.Stats.Iterations {
		t.Fatalf("trajectory has %d points, Stats.Iterations = %d",
			len(sol.Trajectory), sol.Stats.Iterations)
	}
	prevComp, iterInComp := 0, 0
	seen := map[int]bool{}
	for _, p := range sol.Trajectory {
		if p.Component != prevComp {
			if p.Component < prevComp || seen[p.Component] {
				t.Fatalf("components not grouped in ascending order: %d after %d", p.Component, prevComp)
			}
			seen[prevComp] = true
			prevComp, iterInComp = p.Component, 0
		}
		iterInComp++
		if p.Iteration != iterInComp {
			t.Fatalf("component %d: iteration %d at in-component position %d", p.Component, p.Iteration, iterInComp)
		}
	}
}

// TestEvaluationsMatchTrajectory: an accepted step costs exactly the
// evaluations of the line search that found it, so a decomposed LBFGS
// solve makes one evaluation per numerically solved component (at its
// starting point) plus the line-search evaluations its trajectory
// records — whether the components converge or exhaust their budget.
// A line search that stalls produces no iterate and so no trajectory
// entry; the converged run uses the figures' tolerance, 1e-8, at which
// no component of this workload stalls.
func TestEvaluationsMatchTrajectory(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, selected)
	for _, tc := range []struct {
		name      string
		opts      solver.Options
		converged bool
	}{
		{"converged", solver.Options{GradTol: 1e-8}, true},
		{"capped", solver.Options{MaxIterations: 20}, false},
	} {
		var solved atomic.Int64
		tc.opts.Trace = func(ev solver.TraceEvent) {
			if ev.Iteration == 0 {
				solved.Add(1)
			}
		}
		sol, err := SolveContext(context.Background(), sys, Options{Decompose: true, CaptureTrace: true, Solver: tc.opts})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.Converged != tc.converged {
			t.Fatalf("%s: converged = %v after %d iterations", tc.name, sol.Stats.Converged, sol.Stats.Iterations)
		}
		if solved.Load() < 2 {
			t.Fatalf("%s: %d components solved numerically; need ≥2", tc.name, solved.Load())
		}
		lineSearchEvals := 0
		for _, p := range sol.Trajectory {
			lineSearchEvals += p.LineSearchEvals
		}
		if want := int(solved.Load()) + lineSearchEvals; sol.Stats.Evaluations != want {
			t.Fatalf("%s: Stats.Evaluations = %d, want %d components + %d line-search evaluations = %d",
				tc.name, sol.Stats.Evaluations, solved.Load(), lineSearchEvals, want)
		}
	}
}

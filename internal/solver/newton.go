package solver

import (
	"time"

	"privacymaxent/internal/linalg"
)

// StepObjective is an Objective that solves its own Newton system.
// Newton's method — one of the classic options the paper lists for the
// ME dual (Sec. 3.3) — needs the direction d with ∇²f(x)·d = −∇f(x);
// the MaxEnt dual's Hessian A·diag(x(λ))·Aᵀ has a block structure its
// objective exploits, so the objective, not the optimizer, owns the
// linear algebra.
type StepObjective interface {
	Objective
	// NewtonStep writes into d a solution of ∇²f(x)·d = −g, where g is
	// the gradient at x, and reports whether it found one. It must be a
	// pure function of x and g, like Eval.
	NewtonStep(x, g, d []float64) bool
}

// Newton minimizes the objective with a damped Newton method: take the
// objective's Newton step, fall back to steepest descent whenever the
// step solve fails or the step is not a descent direction, and globalize
// with the strong-Wolfe line search. Quadratic local convergence makes it
// take very few iterations; each one costs a step solve.
func Newton(obj StepObjective, x0 []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := obj.Dim()
	start := time.Now()

	x := linalg.CopyOf(x0)
	g := make([]float64, n)
	d := make([]float64, n)
	xPrev := make([]float64, n)

	f := obj.Eval(x, g)
	evals := 1
	if !finite(f) || !allFinite(g) {
		return Result{X: x, F: f, Duration: time.Since(start)}, ErrNonFinite
	}
	lf := newLineFunc(obj, xPrev, d)

	var lastStep float64
	var lastLSEvals int
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if opts.interrupted() {
			return Result{X: x, F: f, GradNorm: linalg.NormInf(g), Iterations: iter, Evaluations: evals, Duration: time.Since(start)}, ErrInterrupted
		}
		gNorm := linalg.NormInf(g)
		if opts.Trace != nil {
			opts.Trace(TraceEvent{Iteration: iter, F: f, GradNorm: gNorm, Step: lastStep, LineSearchEvals: lastLSEvals})
		}
		if gNorm <= opts.GradTol {
			return Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals, Converged: true, Duration: time.Since(start)}, nil
		}

		var dg float64
		if obj.NewtonStep(x, g, d) && allFinite(d) {
			dg = linalg.Dot(d, g)
		}
		if !(dg < 0) {
			// Failed step solve, or not a descent direction: steepest
			// descent step.
			copy(d, g)
			linalg.Scale(-1, d)
			dg = -linalg.Dot(g, g)
			if dg == 0 {
				break
			}
		}

		copy(xPrev, x)
		lf.reset(xPrev, d)
		step, ok := strongWolfe(lf, 1, f, dg)
		if !ok || step == 0 {
			evals += lf.evals
			// Distinguish an interrupt-poisoned search from a genuine
			// stall (see the matching LBFGS comment).
			if opts.interrupted() {
				return Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals, Duration: time.Since(start)}, ErrInterrupted
			}
			return Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals, Duration: time.Since(start)}, nil
		}
		f = lf.accept(x, g)
		evals += lf.evals
		lastStep, lastLSEvals = step, lf.evals
	}
	if opts.Trace != nil {
		opts.Trace(TraceEvent{Iteration: opts.MaxIterations, F: f, GradNorm: linalg.NormInf(g), Step: lastStep, LineSearchEvals: lastLSEvals})
	}
	return Result{X: x, F: f, GradNorm: linalg.NormInf(g), Iterations: opts.MaxIterations, Evaluations: evals, Duration: time.Since(start)}, nil
}

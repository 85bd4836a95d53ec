package solver

import (
	"time"

	"privacymaxent/internal/linalg"
)

// HessianObjective is an Objective that can also produce its dense
// Hessian. Newton's method — one of the classic options the paper lists
// for the ME dual (Sec. 3.3) — needs it; the MaxEnt dual's Hessian is
// A·diag(x(λ))·Aᵀ, cheap when the constraint count is small.
type HessianObjective interface {
	Objective
	// Hessian writes ∇²f(x) into h, a Dim×Dim dense matrix whose rows
	// are preallocated by the caller.
	Hessian(x []float64, h [][]float64)
}

// Newton minimizes the objective with a damped Newton method: solve
// ∇²f d = −∇f by Cholesky, fall back to steepest descent whenever the
// Hessian is not positive definite, and globalize with the strong-Wolfe
// line search. Quadratic local convergence makes it take very few
// iterations on small, well-conditioned duals; the dense O(n³) solve per
// iteration limits it to modest constraint counts.
func Newton(obj HessianObjective, x0 []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := obj.Dim()
	start := time.Now()

	x := linalg.CopyOf(x0)
	g := make([]float64, n)
	d := make([]float64, n)
	xPrev := make([]float64, n)
	h := make([][]float64, n)
	for i := range h {
		h[i] = make([]float64, n)
	}

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

		// Newton direction: solve H d = −g.
		obj.Hessian(x, h)
		copy(d, g)
		linalg.Scale(-1, d)
		if _, err := linalg.SolveSPD(h, d); err != nil {
			// Indefinite or singular Hessian: steepest descent step.
			copy(d, g)
			linalg.Scale(-1, d)
		}
		dg := linalg.Dot(d, g)
		if dg >= 0 {
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

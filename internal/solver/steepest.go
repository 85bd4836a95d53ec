package solver

import (
	"time"

	"privacymaxent/internal/linalg"
)

// SteepestDescent minimizes the objective by following the negative
// gradient with the same strong-Wolfe line search LBFGS uses. It is the
// slow baseline in the Malouf-style algorithm comparison the paper cites
// (Sec. 3.3); expect many more iterations than LBFGS on ill-conditioned
// duals.
func SteepestDescent(obj Objective, x0 []float64, opts Options) (Result, error) {
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

	step := opts.InitialStep
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
		copy(d, g)
		linalg.Scale(-1, d)
		dg := -linalg.Dot(g, g)

		copy(xPrev, x)
		lf.reset(xPrev, d)
		accepted, ok := strongWolfe(lf, step, f, dg)
		if !ok || accepted == 0 {
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
		lastStep, lastLSEvals = accepted, lf.evals
		// Reuse the accepted step as the next initial trial; gradient
		// methods benefit from step-length memory.
		step = accepted
	}
	if opts.Trace != nil {
		opts.Trace(TraceEvent{Iteration: opts.MaxIterations, F: f, GradNorm: linalg.NormInf(g), Step: lastStep, LineSearchEvals: lastLSEvals})
	}
	return Result{X: x, F: f, GradNorm: linalg.NormInf(g), Iterations: opts.MaxIterations, Evaluations: evals, Duration: time.Since(start)}, nil
}

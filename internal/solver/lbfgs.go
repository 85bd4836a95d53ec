package solver

import (
	"time"

	"privacymaxent/internal/linalg"
)

// LBFGS minimizes the objective from x0 with the limited-memory BFGS
// method (Liu & Nocedal 1989): the inverse Hessian is approximated
// implicitly by the last Memory correction pairs via the two-loop
// recursion, and steps are chosen by a strong-Wolfe line search. x0 is not
// modified.
func LBFGS(obj Objective, x0 []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := obj.Dim()
	start := time.Now()

	x := linalg.CopyOf(x0)
	g := make([]float64, n)
	f := obj.Eval(x, g)
	evals := 1
	if !finite(f) || !allFinite(g) {
		return Result{X: x, F: f, Duration: time.Since(start)}, ErrNonFinite
	}

	// Correction-pair ring buffers.
	m := opts.Memory
	sBuf := make([][]float64, 0, m)
	yBuf := make([][]float64, 0, m)
	rhoBuf := make([]float64, 0, m)

	d := make([]float64, n)     // search direction
	q := make([]float64, n)     // two-loop scratch
	alpha := make([]float64, m) // two-loop scratch
	gPrev := make([]float64, n)
	xPrev := make([]float64, n)
	// sNew/yNew hold the candidate correction pair; once the ring is full,
	// each accepted pair recycles the storage of the pair it evicts, so
	// the iteration loop is allocation-free after the first m iterations.
	sNew := make([]float64, n)
	yNew := make([]float64, n)
	lf := newLineFunc(obj, xPrev, d)

	res := Result{}
	firstStep := opts.InitialStep
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
			res = Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals, Converged: true}
			res.Duration = time.Since(start)
			return res, nil
		}

		// Two-loop recursion: d = -H g.
		copy(q, g)
		for i := len(sBuf) - 1; i >= 0; i-- {
			alpha[i] = rhoBuf[i] * linalg.Dot(sBuf[i], q)
			linalg.Axpy(-alpha[i], yBuf[i], q)
		}
		if k := len(sBuf); k > 0 {
			// Scale by γ = s·y / y·y (Nocedal & Wright Eq. 7.20).
			gamma := 1 / (rhoBuf[k-1] * linalg.Dot(yBuf[k-1], yBuf[k-1]))
			linalg.Scale(gamma, q)
		}
		for i := 0; i < len(sBuf); i++ {
			beta := rhoBuf[i] * linalg.Dot(yBuf[i], q)
			linalg.Axpy(alpha[i]-beta, sBuf[i], q)
		}
		copy(d, q)
		linalg.Scale(-1, d)

		dg := linalg.Dot(d, g)
		if dg >= 0 {
			// Numerical breakdown of the quasi-Newton model: reset to
			// steepest descent.
			copy(d, g)
			linalg.Scale(-1, d)
			dg = -linalg.Dot(g, g)
			sBuf, yBuf, rhoBuf = sBuf[:0], yBuf[:0], rhoBuf[:0]
			if dg == 0 {
				break
			}
		}

		copy(xPrev, x)
		copy(gPrev, g)
		lf.reset(xPrev, d)
		step0 := 1.0
		if len(sBuf) == 0 {
			step0 = firstStep
		}
		step, ok := strongWolfe(lf, step0, f, dg)
		if !ok || step == 0 {
			evals += lf.evals
			// A stalled line search right after an interrupt fired is the
			// interrupt's doing, not the objective's: an internally
			// parallel objective (see Objective) drains its kernels on
			// cancellation and returns stale values the search cannot
			// satisfy Wolfe on. Report the interruption, not a stall.
			if opts.interrupted() {
				return Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals, Duration: time.Since(start)}, ErrInterrupted
			}
			// Line search stalled; report the best point so far.
			res = Result{X: x, F: f, GradNorm: gNorm, Iterations: iter, Evaluations: evals}
			res.Duration = time.Since(start)
			return res, nil
		}
		f = lf.accept(x, g)
		evals += lf.evals
		lastStep, lastLSEvals = step, lf.evals

		// Update correction pairs.
		for i := range sNew {
			sNew[i] = x[i] - xPrev[i]
			yNew[i] = g[i] - gPrev[i]
		}
		sy := linalg.Dot(sNew, yNew)
		if sy > 1e-16 {
			var sOld, yOld []float64
			if len(sBuf) == m {
				sOld, yOld = sBuf[0], yBuf[0]
				copy(sBuf, sBuf[1:])
				copy(yBuf, yBuf[1:])
				copy(rhoBuf, rhoBuf[1:])
				sBuf, yBuf, rhoBuf = sBuf[:m-1], yBuf[:m-1], rhoBuf[:m-1]
			}
			sBuf = append(sBuf, sNew)
			yBuf = append(yBuf, yNew)
			rhoBuf = append(rhoBuf, 1/sy)
			if sOld != nil {
				sNew, yNew = sOld, yOld
			} else {
				sNew = make([]float64, n)
				yNew = make([]float64, n)
			}
		}
	}

	if opts.Trace != nil {
		opts.Trace(TraceEvent{Iteration: opts.MaxIterations, F: f, GradNorm: linalg.NormInf(g), Step: lastStep, LineSearchEvals: lastLSEvals})
	}
	res = Result{X: x, F: f, GradNorm: linalg.NormInf(g), Iterations: opts.MaxIterations, Evaluations: evals}
	res.Duration = time.Since(start)
	return res, nil
}

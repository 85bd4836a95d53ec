package solver

import (
	"math"

	"privacymaxent/internal/linalg"
)

// Line-search constants for the strong Wolfe conditions (Nocedal & Wright,
// Numerical Optimization, Algorithms 3.5/3.6). c1 is the sufficient
// decrease (Armijo) parameter, c2 the curvature parameter recommended for
// quasi-Newton directions.
const (
	wolfeC1       = 1e-4
	wolfeC2       = 0.9
	maxLineEvals  = 40
	maxZoomRounds = 40
)

// lineFunc evaluates φ(α) = f(x + α d) and φ'(α) = ∇f(x + α d)·d,
// tracking evaluation counts for the Result report. xTmp, gTmp and lastF
// keep the point, gradient and value of the most recent evaluation, so
// accept can adopt them instead of re-evaluating.
type lineFunc struct {
	obj   Objective
	x     []float64 // base point
	d     []float64 // search direction
	xTmp  []float64
	gTmp  []float64
	lastF float64
	evals int
}

func newLineFunc(obj Objective, x, d []float64) *lineFunc {
	n := obj.Dim()
	return &lineFunc{obj: obj, x: x, d: d, xTmp: make([]float64, n), gTmp: make([]float64, n)}
}

// reset re-targets the line function at a new base point and direction,
// reusing its evaluation buffers. The per-iteration evaluation count
// restarts from zero.
func (lf *lineFunc) reset(x, d []float64) {
	lf.x, lf.d, lf.evals = x, d, 0
}

// eval returns φ(α) and φ'(α).
func (lf *lineFunc) eval(alpha float64) (phi, dphi float64) {
	copy(lf.xTmp, lf.x)
	linalg.Axpy(alpha, lf.d, lf.xTmp)
	phi = lf.obj.Eval(lf.xTmp, lf.gTmp)
	lf.evals++
	lf.lastF = phi
	return phi, linalg.Dot(lf.gTmp, lf.d)
}

// accept moves the iterate to the step strongWolfe found, which is
// always the last one evaluated: it copies that evaluation's point and
// gradient into x and g and returns its value. For a pure objective this
// is bitwise what evaluating x + step·d again would give, since eval
// builds the point with the same copy + Axpy (see Objective for stateful
// ones).
func (lf *lineFunc) accept(x, g []float64) float64 {
	copy(x, lf.xTmp)
	copy(g, lf.gTmp)
	return lf.lastF
}

// strongWolfe searches for a step length satisfying the strong Wolfe
// conditions along descent direction d. phi0 and dphi0 are φ(0) and φ'(0)
// (dphi0 must be negative). It returns the accepted step and whether a
// satisfying step was found; a found step is always the last one lf
// evaluated. On failure the best step seen is returned.
func strongWolfe(lf *lineFunc, alpha0, phi0, dphi0 float64) (alpha float64, ok bool) {
	if dphi0 >= 0 {
		return 0, false
	}
	alphaPrev, phiPrev := 0.0, phi0
	alpha = alpha0
	const maxAlpha = 1e10
	for i := 0; i < maxLineEvals; i++ {
		phiA, dphiA := lf.eval(alpha)
		if !finite(phiA) {
			// Overstepped into an overflow region: shrink hard.
			alpha = alphaPrev + (alpha-alphaPrev)/10
			continue
		}
		if phiA > phi0+wolfeC1*alpha*dphi0 || (i > 0 && phiA >= phiPrev) {
			return zoom(lf, alphaPrev, alpha, phiPrev, phi0, dphi0)
		}
		if math.Abs(dphiA) <= -wolfeC2*dphi0 {
			return alpha, true
		}
		if dphiA >= 0 {
			return zoom(lf, alpha, alphaPrev, phiA, phi0, dphi0)
		}
		alphaPrev, phiPrev = alpha, phiA
		alpha *= 2
		if alpha > maxAlpha {
			return alphaPrev, false
		}
	}
	return alphaPrev, false
}

// zoom narrows [lo, hi] (in the sense of Nocedal & Wright Alg. 3.6; lo has
// the lower φ) until a strong-Wolfe point is found.
func zoom(lf *lineFunc, alphaLo, alphaHi, phiLo, phi0, dphi0 float64) (alpha float64, ok bool) {
	for i := 0; i < maxZoomRounds; i++ {
		alpha = 0.5 * (alphaLo + alphaHi)
		phiA, dphiA := lf.eval(alpha)
		switch {
		case !finite(phiA) || phiA > phi0+wolfeC1*alpha*dphi0 || phiA >= phiLo:
			alphaHi = alpha
		default:
			if math.Abs(dphiA) <= -wolfeC2*dphi0 {
				return alpha, true
			}
			if dphiA*(alphaHi-alphaLo) >= 0 {
				alphaHi = alphaLo
			}
			alphaLo, phiLo = alpha, phiA
		}
		if math.Abs(alphaHi-alphaLo) < 1e-16*(1+math.Abs(alphaLo)) {
			break
		}
	}
	// Accept the best lower point even if curvature wasn't certified;
	// Armijo decrease still holds there.
	if alphaLo > 0 {
		phiA, _ := lf.eval(alphaLo)
		return alphaLo, finite(phiA) && phiA <= phi0+wolfeC1*alphaLo*dphi0
	}
	return 0, false
}

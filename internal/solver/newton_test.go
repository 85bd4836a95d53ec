package solver

import (
	"math"
	"testing"

	"privacymaxent/internal/linalg"
)

// quadraticH extends quadratic with its Newton step: the Hessian is
// diag(w), so d = −g/w.
type quadraticH struct{ quadratic }

func (q *quadraticH) NewtonStep(x, g, d []float64) bool {
	for i := range d {
		d[i] = -g[i] / q.w[i]
	}
	return true
}

// expSumH extends expSum with its Newton step, solved densely from the
// Hessian Σ_j a_j a_jᵀ exp(a_j·x − 1).
type expSumH struct{ expSum }

func (e *expSumH) NewtonStep(x, g, d []float64) bool {
	n := len(e.c)
	h := make([]float64, linalg.PackedLen(n))
	for _, row := range e.a {
		v := math.Exp(dot(row, x) - 1)
		for i := range row {
			for j := 0; j <= i; j++ {
				h[linalg.PackedRow(i)+j] += row[i] * row[j] * v
			}
		}
	}
	for i := range d {
		d[i] = -g[i]
	}
	_, err := linalg.SolveSPD(h, d, 1e-12)
	return err == nil
}

func TestNewtonQuadraticOneStep(t *testing.T) {
	q := &quadraticH{quadratic{w: []float64{1, 10, 100}, c: []float64{3, -2, 0.5}}}
	res, err := Newton(q, []float64{0, 0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// Newton solves a quadratic exactly in one iteration.
	if res.Iterations > 2 {
		t.Fatalf("iterations = %d, want <= 2", res.Iterations)
	}
	for i, want := range q.c {
		if math.Abs(res.X[i]-want) > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], want)
		}
	}
}

func TestNewtonExpSum(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	lamStar := []float64{0.4, -0.9}
	c := make([]float64, 2)
	for _, row := range a {
		v := math.Exp(dot(row, lamStar) - 1)
		for i := range row {
			c[i] += row[i] * v
		}
	}
	e := &expSumH{expSum{a: a, c: c}}
	res, err := Newton(e, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range lamStar {
		if math.Abs(res.X[i]-lamStar[i]) > 1e-7 {
			t.Fatalf("λ[%d] = %g, want %g", i, res.X[i], lamStar[i])
		}
	}
	// Newton should use dramatically fewer iterations than steepest
	// descent on the same problem.
	sd, err := SteepestDescent(&e.expSum, []float64{0, 0}, Options{MaxIterations: 10000, GradTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Converged && sd.Iterations < res.Iterations {
		t.Fatalf("steepest descent (%d) beat Newton (%d)", sd.Iterations, res.Iterations)
	}
}

type nanHessObjective struct{ nanObjective }

func (nanHessObjective) NewtonStep(x, g, d []float64) bool { return false }

func TestNewtonNonFiniteStart(t *testing.T) {
	if _, err := Newton(nanHessObjective{}, []float64{0}, Options{}); err != ErrNonFinite {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

// indefObjective claims a saddle-shaped Hessian, so its step solve fails
// and Newton must fall back to gradient descent and still make progress.
type indefObjective struct{}

func (indefObjective) Dim() int { return 2 }
func (indefObjective) Eval(x, grad []float64) float64 {
	// f = (x0²+x1²)/2 + x0⁴: convex, but we lie about the Hessian.
	grad[0] = x[0] + 4*x[0]*x[0]*x[0]
	grad[1] = x[1]
	return 0.5*(x[0]*x[0]+x[1]*x[1]) + x[0]*x[0]*x[0]*x[0]
}
func (indefObjective) NewtonStep(x, g, d []float64) bool {
	h := []float64{1, 2, 1} // packed [[1, 2], [2, 1]]: indefinite
	d[0], d[1] = -g[0], -g[1]
	_, err := linalg.SolveSPD(h, d, 1e-12)
	return err == nil
}

func TestNewtonIndefiniteFallback(t *testing.T) {
	res, err := Newton(indefObjective{}, []float64{2, -3}, Options{MaxIterations: 2000, GradTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]) > 1e-4 {
		t.Fatalf("minimizer = %v, want origin", res.X)
	}
}

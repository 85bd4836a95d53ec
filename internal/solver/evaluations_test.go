package solver

import (
	"math"
	"testing"

	"privacymaxent/internal/linalg"
)

// countingObjective counts the Eval calls made on the objective it wraps.
type countingObjective struct {
	StepObjective
	calls int
}

func (c *countingObjective) Eval(x, grad []float64) float64 {
	c.calls++
	return c.StepObjective.Eval(x, grad)
}

// TestEvaluationsMatchEvalCalls: Result.Evaluations counts real Eval
// calls, and an accepted step costs exactly its line search's
// evaluations — the iterate adopts the search's last point instead of
// evaluating it again — so a converged or capped run makes
// 1 + Σ LineSearchEvals evaluations over its trace.
func TestEvaluationsMatchEvalCalls(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	lamStar := []float64{0.4, -0.9}
	c := make([]float64, 2)
	for _, row := range a {
		v := math.Exp(dot(row, lamStar) - 1)
		for i := range row {
			c[i] += row[i] * v
		}
	}
	optimizers := map[string]func(StepObjective, []float64, Options) (Result, error){
		"lbfgs": func(o StepObjective, x0 []float64, opts Options) (Result, error) {
			return LBFGS(o, x0, opts)
		},
		"steepest": func(o StepObjective, x0 []float64, opts Options) (Result, error) {
			return SteepestDescent(o, x0, opts)
		},
		"newton": Newton,
	}
	for name, run := range optimizers {
		for _, capped := range []bool{false, true} {
			obj := &countingObjective{StepObjective: &expSumH{expSum{a: a, c: c}}}
			var lsEvals int
			opts := Options{MaxIterations: 10000, GradTol: 1e-8, Trace: func(ev TraceEvent) {
				lsEvals += ev.LineSearchEvals
			}}
			if capped {
				opts.MaxIterations = 1
			}
			res, err := run(obj, []float64{0, 0}, opts)
			if err != nil {
				t.Fatalf("%s capped=%v: %v", name, capped, err)
			}
			if res.Converged == capped {
				t.Fatalf("%s capped=%v: converged=%v after %d iterations", name, capped, res.Converged, res.Iterations)
			}
			if res.Evaluations != obj.calls {
				t.Errorf("%s capped=%v: Evaluations = %d, Eval called %d times", name, capped, res.Evaluations, obj.calls)
			}
			if res.Evaluations != 1+lsEvals {
				t.Errorf("%s capped=%v: Evaluations = %d, want 1 + Σ LineSearchEvals = %d", name, capped, res.Evaluations, 1+lsEvals)
			}
		}
	}
}

// TestAcceptAdoptsLastEvaluation: accept moves the iterate to the line
// search's last evaluation without calling Eval, and the point, gradient
// and value it adopts are bit for bit what evaluating x + step·d afresh
// gives.
func TestAcceptAdoptsLastEvaluation(t *testing.T) {
	q := &countingObjective{StepObjective: &quadraticH{quadratic{w: []float64{1, 10}, c: []float64{2, -1}}}}
	base := []float64{5, 5}
	d := []float64{-1, -3}
	lf := newLineFunc(q, base, d)
	const step = 0.3
	lf.eval(0.7)
	lf.eval(step)
	calls := q.calls
	x, g := make([]float64, 2), make([]float64, 2)
	f := lf.accept(x, g)
	if q.calls != calls || lf.evals != 2 {
		t.Fatalf("accept: %d Eval calls, lf.evals = %d; want 0 and 2", q.calls-calls, lf.evals)
	}
	wx := linalg.CopyOf(base)
	linalg.Axpy(step, d, wx)
	wg := make([]float64, 2)
	wf := q.StepObjective.Eval(wx, wg)
	if f != wf || x[0] != wx[0] || x[1] != wx[1] || g[0] != wg[0] || g[1] != wg[1] {
		t.Fatalf("accept = f %g x %v g %v, want f %g x %v g %v", f, x, g, wf, wx, wg)
	}
}

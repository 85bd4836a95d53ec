package maxent

import (
	"context"
	"fmt"
	"math"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/linalg"
	"privacymaxent/internal/telemetry"
)

// Inequality is a two-sided linear constraint Lo ≤ Σ Coeffs·x[Terms] ≤ Hi
// over the term space — the paper's Sec. 4.5 extension for vague
// background knowledge ("P(s1|q1) is about 0.3" becomes the ε-box
// [0.3−ε, 0.3+ε] after multiplying by P(q1)). Use math.Inf for one-sided
// constraints.
type Inequality struct {
	Label  string
	Terms  []int
	Coeffs []float64
	Lo, Hi float64
}

// VagueKnowledge renders a distribution-knowledge statement with
// vagueness ε as an Inequality: (P−ε)·P(Qv) ≤ Σ P(Qv,Q⁻,s,B) ≤ (P+ε)·P(Qv)
// (clamped to [0, 1] on the probability scale).
func VagueKnowledge(sp *constraint.Space, k constraint.DistributionKnowledge, eps float64) (Inequality, error) {
	if eps < 0 {
		return Inequality{}, fmt.Errorf("maxent: negative vagueness %g", eps)
	}
	c, err := k.Constraint(sp)
	if err != nil {
		return Inequality{}, err
	}
	if k.P == 0 && eps == 0 {
		// Degenerate but valid: an exact zero.
		return Inequality{Label: c.Label, Terms: c.Terms, Coeffs: c.Coeffs, Lo: 0, Hi: 0}, nil
	}
	scale := 0.0
	if k.P > 0 {
		scale = c.RHS / k.P // = P(Qv)
	} else {
		// Recover P(Qv) by rebuilding with P = 1.
		probe := k
		probe.P = 1
		pc, err := probe.Constraint(sp)
		if err != nil {
			return Inequality{}, err
		}
		scale = pc.RHS
	}
	lo := math.Max(0, k.P-eps) * scale
	hi := math.Min(1, k.P+eps) * scale
	return Inequality{Label: c.Label + fmt.Sprintf(" ± %g", eps), Terms: c.Terms, Coeffs: c.Coeffs, Lo: lo, Hi: hi}, nil
}

// SolveWithInequalitiesContext extends SolveContext with inequality
// constraints, using the Kazama–Tsujii treatment: each side of a box gets
// a non-negative Lagrange multiplier, giving a bound-constrained convex
// dual
//
//	g(λ, α, β) = Σ_j exp(η_j − 1) − λᵀc + αᵀhi − βᵀlo,
//	η = Aᵀλ + Bᵀ(β − α),   α, β ≥ 0,
//
// minimized by projected Barzilai–Borwein gradient descent with Armijo
// backtracking. Equality constraints are presolved as usual; inequality
// rows are rewritten over the surviving variables. The context's tracer
// receives a "maxent.solve_inequalities" span with a presolve child, and
// its registry the shared solve metrics. The boxed dual has no solver
// trace hook, so vague solves stream lifecycle events only — no
// per-iteration frames (see DESIGN.md).
func SolveWithInequalitiesContext(ctx context.Context, sys *constraint.System, ineqs []Inequality, opts Options) (*Solution, error) {
	sp := sys.Space()
	sol := &Solution{space: sp, X: Uniform(sp)}
	sol.Stats.Workers = 1
	start := []telemetry.Attr{
		telemetry.String("algorithm", "boxed-bb"),
		telemetry.Int("variables", sp.Len()),
		telemetry.Int("equalities", sys.Len()),
		telemetry.Int("inequalities", len(ineqs)),
	}
	err := runSolve(ctx, "maxent.solve_inequalities", start, &sol.Stats, 0, func(ctx context.Context) error {
		return solveBoxed(ctx, sys, ineqs, sol, opts)
	})
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// solveBoxed presolves the equalities, rewrites the boxes over the
// surviving variables and runs the boxed dual, filling sol.X and the
// solver counters of sol.Stats.
func solveBoxed(ctx context.Context, sys *constraint.System, ineqs []Inequality, sol *Solution, opts Options) error {
	red, err := runPresolve(ctx, len(sol.X), systemRows(sys))
	if err != nil {
		return err
	}
	for j := 0; j < red.n; j++ {
		if red.fixed[j] {
			sol.X[j] = red.value[j]
		}
	}
	sol.Stats.FixedVariables = red.numFixed()

	// Rewrite inequalities over active variables, folding in fixed ones.
	type box struct {
		cols   []int
		coeffs []float64
		lo, hi float64
		label  string
	}
	var boxes []box
	for _, q := range ineqs {
		if len(q.Terms) != len(q.Coeffs) {
			return fmt.Errorf("maxent: inequality %q has %d terms but %d coefficients", q.Label, len(q.Terms), len(q.Coeffs))
		}
		if q.Lo > q.Hi {
			return fmt.Errorf("maxent: inequality %q has empty box [%g, %g]", q.Label, q.Lo, q.Hi)
		}
		b := box{lo: q.Lo, hi: q.Hi, label: q.Label}
		for k, j := range q.Terms {
			if j < 0 || j >= red.n {
				return fmt.Errorf("maxent: inequality %q references term %d out of range", q.Label, j)
			}
			if red.fixed[j] {
				b.lo -= q.Coeffs[k] * red.value[j]
				b.hi -= q.Coeffs[k] * red.value[j]
				continue
			}
			pos := red.newIdx[j]
			if pos < 0 {
				// Mentioned by no equality: promote it to active.
				pos = len(red.active)
				red.newIdx[j] = pos
				red.active = append(red.active, j)
			}
			b.cols = append(b.cols, pos)
			b.coeffs = append(b.coeffs, q.Coeffs[k])
		}
		if len(b.cols) == 0 {
			if b.lo > presolveTol || b.hi < -presolveTol {
				return &ErrInfeasible{Reason: fmt.Sprintf("inequality %q reduces to %g <= 0 <= %g", q.label(), b.lo, b.hi)}
			}
			continue
		}
		boxes = append(boxes, b)
	}
	sol.Stats.ActiveVariables = len(red.active)

	if len(red.active) == 0 {
		sol.Stats.Converged = true
		sol.Stats.MaxViolation = sys.MaxViolation(sol.X)
		return nil
	}

	// Assemble A (equalities) and B (inequality bodies).
	a := linalg.NewCSR(len(red.active))
	var ceq []float64
	for _, row := range red.rows {
		cols := make([]int, len(row.terms))
		for k, j := range row.terms {
			cols[k] = red.newIdx[j]
		}
		if err := a.AppendRow(cols, row.coeffs); err != nil {
			return fmt.Errorf("maxent: assembling equalities: %w", err)
		}
		ceq = append(ceq, row.rhs)
	}
	bm := linalg.NewCSR(len(red.active))
	lo := make([]float64, 0, len(boxes))
	hi := make([]float64, 0, len(boxes))
	for _, b := range boxes {
		if err := bm.AppendRow(b.cols, b.coeffs); err != nil {
			return fmt.Errorf("maxent: assembling inequalities: %w", err)
		}
		lo = append(lo, b.lo)
		hi = append(hi, b.hi)
	}

	xActive, iters, evals, converged := solveBoxedDual(a, ceq, bm, lo, hi, opts)
	sol.Stats.Iterations = iters
	sol.Stats.Evaluations = evals
	sol.Stats.Converged = converged
	for pos, j := range red.active {
		sol.X[j] = xActive[pos]
	}

	// Report the worst violation across equalities and box sides.
	worst := sys.MaxViolation(sol.X)
	bx := make([]float64, bm.Rows())
	bm.MulVec(xActive, bx)
	for i := range bx {
		if v := lo[i] - bx[i]; v > worst {
			worst = v
		}
		if v := bx[i] - hi[i]; v > worst {
			worst = v
		}
	}
	sol.Stats.MaxViolation = worst
	return nil
}

func (b *Inequality) label() string {
	if b.Label != "" {
		return b.Label
	}
	return "inequality"
}

// solveBoxedDual minimizes g over μ = (λ free, α ≥ 0, β ≥ 0) by projected
// gradient descent with Barzilai–Borwein step lengths and Armijo
// backtracking, returning the primal x(μ).
func solveBoxedDual(a *linalg.CSR, c []float64, bm *linalg.CSR, lo, hi []float64, opts Options) (x []float64, iterations, evaluations int, converged bool) {
	nEq := a.Rows()
	nIq := bm.Rows()
	nVar := a.Cols()
	dim := nEq + 2*nIq

	maxIter := opts.Solver.MaxIterations
	if maxIter <= 0 {
		maxIter = 2000
	}
	tol := opts.Solver.GradTol
	if tol <= 0 {
		tol = 1e-8
	}

	mu := make([]float64, dim)
	grad := make([]float64, dim)
	muPrev := make([]float64, dim)
	gradPrev := make([]float64, dim)
	trial := make([]float64, dim)

	eta := make([]float64, nVar)
	x = make([]float64, nVar)
	ax := make([]float64, nEq)
	bx := make([]float64, nIq)

	// eval computes g(μ) and the gradient; returns +Inf on overflow.
	eval := func(mu, grad []float64) float64 {
		evaluations++
		a.MulTVec(mu[:nEq], eta)
		if nIq > 0 {
			tmp := make([]float64, nVar)
			diff := make([]float64, nIq)
			for i := 0; i < nIq; i++ {
				diff[i] = mu[nEq+nIq+i] - mu[nEq+i] // β − α
			}
			bm.MulTVec(diff, tmp)
			linalg.Axpy(1, tmp, eta)
		}
		var g float64
		for j, e := range eta {
			v := math.Exp(e - 1)
			x[j] = v
			g += v
		}
		g -= linalg.Dot(mu[:nEq], c)
		for i := 0; i < nIq; i++ {
			g += mu[nEq+i]*hi[i] - mu[nEq+nIq+i]*lo[i]
		}
		if grad != nil {
			a.MulVec(x, ax)
			for i := 0; i < nEq; i++ {
				grad[i] = ax[i] - c[i]
			}
			bm.MulVec(x, bx)
			for i := 0; i < nIq; i++ {
				grad[nEq+i] = hi[i] - bx[i]     // ∂/∂α
				grad[nEq+nIq+i] = bx[i] - lo[i] // ∂/∂β
			}
		}
		return g
	}

	project := func(v []float64) {
		for i := nEq; i < dim; i++ {
			if v[i] < 0 {
				v[i] = 0
			}
		}
	}

	g := eval(mu, grad)
	step := 1.0
	// iterations counts accepted steps, so a solve that uses up the cap
	// reports MaxIterations, like the other algorithms.
	for ; iterations < maxIter; iterations++ {
		// Projected-gradient optimality measure.
		var pg float64
		for i := range grad {
			gi := grad[i]
			if i >= nEq && mu[i] == 0 && gi > 0 {
				gi = 0 // pushing further against the bound
			}
			if v := math.Abs(gi); v > pg {
				pg = v
			}
		}
		if pg <= tol {
			converged = true
			break
		}

		// Barzilai–Borwein step from the previous pair.
		if iterations > 0 {
			var sy, ss float64
			for i := range mu {
				s := mu[i] - muPrev[i]
				y := grad[i] - gradPrev[i]
				sy += s * y
				ss += s * s
			}
			if sy > 1e-18 {
				step = ss / sy
			}
		}
		if step <= 0 || math.IsInf(step, 0) || math.IsNaN(step) {
			step = 1
		}

		copy(muPrev, mu)
		copy(gradPrev, grad)

		// Armijo backtracking on the projected step.
		accepted := false
		for ls := 0; ls < 60; ls++ {
			copy(trial, muPrev)
			linalg.Axpy(-step, gradPrev, trial)
			project(trial)
			gTrial := eval(trial, nil)
			// Sufficient decrease relative to the projected move.
			var dec float64
			for i := range trial {
				d := trial[i] - muPrev[i]
				dec += gradPrev[i] * d
			}
			if !math.IsInf(gTrial, 0) && !math.IsNaN(gTrial) && gTrial <= g+1e-4*dec {
				copy(mu, trial)
				g = eval(mu, grad)
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted {
			break
		}
	}
	// Final primal from the last accepted μ.
	eval(mu, nil)
	return append([]float64(nil), x...), iterations, evaluations, converged
}

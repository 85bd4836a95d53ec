// Package maxent solves the paper's Maximum Entropy modeling problem
// (Definition 3.1): maximize H(x) = −Σ x log x over the probability terms
// x = P(Q,S,B), subject to the linear constraint system A x = c assembled
// from the published data's invariants and from background knowledge.
//
// The Lagrangian dual is used, exactly as the paper's evaluation does
// ("we apply the method of Lagrange multipliers to convert this
// constrained optimization problem to an unconstrained optimization
// problem, which is then solved using LBFGS"). Stationarity of
//
//	L(x, λ) = −Σ_j x_j log x_j + Σ_i λ_i ((A x)_i − c_i)
//
// gives x_j(λ) = exp((Aᵀλ)_j − 1), and the convex dual to minimize is
//
//	g(λ) = Σ_j exp((Aᵀλ)_j − 1) − λᵀc,   ∇g(λ) = A x(λ) − c.
//
// No explicit normalization is needed: the QI-invariant right-hand sides
// sum to 1, so feasibility of A x = c already pins the total mass.
package maxent

import (
	"math"
	"slices"

	"privacymaxent/internal/linalg"
)

// dualObjective implements solver.Objective for g(λ) over a reduced
// (presolved) constraint system. Its work buffers come from a shared
// pool (dualScratch); callers must release() the objective when the
// solve — including any Primal recovery — is finished.
//
// Both hot kernels are blocked over the fixed linalg partition so an
// optional Runner can execute blocks concurrently: (1) a fused
// Aᵀλ → exp → partial-partition pass, one column-gather, exponential and
// block-local sum per term, with the block sums combined in ascending
// block order afterwards; (2) the gradient pass A·x(λ) − c over row
// blocks. The partition and combination order are functions of the
// problem shape only, so the objective value, gradient, primal recovery
// — and therefore the whole optimizer trajectory — are bit-identical at
// every worker count, including the serial Runner-less path.
type dualObjective struct {
	a       *linalg.CSR    // m rows (constraints) × n cols (active variables)
	cols    linalg.ColView // CSC view the fused kernel gathers from
	c       []float64      // right-hand sides, length m
	scratch *dualScratch
	run     linalg.Runner // block executor; nil runs blocks serially
	step    *newtonStep   // Newton's step solver; nil for the other methods

	// The two block kernels are bound once, so Eval and Primal hand
	// forBlocks no per-call closure (one would escape to the heap on
	// every evaluation); each call sets the kernels' operands first.
	expBlock, gradBlock func(b int)
	lambda, x, grad     []float64
}

func newDualObjective(a *linalg.CSR, c []float64) *dualObjective {
	d := &dualObjective{
		a:       a,
		cols:    a.Columns(),
		c:       c,
		scratch: newDualScratch(a.Cols()),
	}
	d.expBlock, d.gradBlock = d.expKernel, d.gradKernel
	return d
}

// setRunner installs the executor the blocked kernels fan out on; nil
// (the default) keeps every kernel on the calling goroutine.
func (d *dualObjective) setRunner(run linalg.Runner) { d.run = run }

// forBlocks executes fn for every block index in [0, nb), on the runner
// when one is installed.
func (d *dualObjective) forBlocks(nb int, fn func(b int)) {
	if d.run == nil {
		for b := 0; b < nb; b++ {
			fn(b)
		}
		return
	}
	d.run(nb, fn)
}

// release returns the objective's scratch buffers to the pool. The
// objective must not be used afterwards.
func (d *dualObjective) release() {
	if d.scratch != nil {
		d.scratch.release()
		d.scratch = nil
	}
}

// Dim is the number of Lagrange multipliers (one per constraint).
func (d *dualObjective) Dim() int { return d.a.Rows() }

// Eval computes g(λ) and its gradient. Exponents are evaluated directly;
// if λ wanders into overflow territory the +Inf propagates and the
// strong-Wolfe line search backs off.
//
// The η = Aᵀλ intermediate of the textbook formulation is fused away:
// each term's exponent is gathered, exponentiated and accumulated into
// its block's partition-sum share in one pass, saving a full read+write
// sweep over the term space per evaluation.
func (d *dualObjective) Eval(lambda, grad []float64) float64 {
	s := d.scratch
	d.lambda, d.x, d.grad = lambda, s.x, grad
	d.expAll()
	var sumExp float64
	for _, v := range s.blockSums {
		sumExp += v
	}
	f := sumExp - linalg.Dot(lambda, d.c)
	d.forBlocks(linalg.NumBlocks(d.a.Rows()), d.gradBlock)
	return f
}

// seed builds the warm start for rows from the label-matched multipliers
// in warm (see Options.WarmStart). It returns nil when no row has a
// nonzero seed, and also when g(seed) > g(0) = n/e — at λ = 0 each of the
// n active terms is exp(−1) — in which case evals is 1, the rejected
// evaluation. NaN fails the test too.
func (d *dualObjective) seed(rows []rowData, warm map[string]float64) (s *seededDual, evals int) {
	var lambda []float64
	for i, row := range rows {
		if v := warm[row.label]; v != 0 {
			if lambda == nil {
				lambda = make([]float64, len(rows))
			}
			lambda[i] = v
		}
	}
	if lambda == nil {
		return nil, 0
	}
	grad := make([]float64, len(lambda))
	f := d.Eval(lambda, grad)
	if !(f <= float64(d.a.Cols())/math.E) {
		return nil, 1
	}
	return &seededDual{dualObjective: d, lambda: lambda, f: f, grad: grad}, 0
}

// seededDual is the dual started from an accepted warm seed. The seed
// guard has already evaluated g there, and every optimizer evaluates its
// starting point first, so that first Eval returns the guard's value and
// gradient instead of computing them again.
type seededDual struct {
	*dualObjective
	lambda, grad []float64
	f            float64
}

func (s *seededDual) Eval(lambda, grad []float64) float64 {
	if s.grad != nil && slices.Equal(lambda, s.lambda) {
		copy(grad, s.grad)
		s.grad = nil
		return s.f
	}
	return s.dualObjective.Eval(lambda, grad)
}

// Primal recovers x(λ) into dst (length = number of active variables).
func (d *dualObjective) Primal(lambda, dst []float64) {
	d.lambda, d.x = lambda, dst
	d.expAll()
}

// expAll runs the fused kernel over every column block: x = exp(Aᵀλ − 1)
// into d.x and each block's share of Σ x into scratch.blockSums.
func (d *dualObjective) expAll() {
	nb := linalg.NumBlocks(d.a.Cols())
	d.scratch.blockSums = growFloats(d.scratch.blockSums, nb)
	d.forBlocks(nb, d.expBlock)
}

// expKernel is the fused pass over column block b.
func (d *dualObjective) expKernel(b int) {
	lo, hi := linalg.BlockBounds(b, d.a.Cols())
	d.scratch.blockSums[b] = d.cols.ExpDots(d.lambda, d.x, lo, hi)
}

// gradKernel writes row block b of the gradient A·x − c.
func (d *dualObjective) gradKernel(b int) {
	lo, hi := linalg.BlockBounds(b, d.a.Rows())
	d.a.MulVecRange(d.x, d.grad, lo, hi)
	for i := lo; i < hi; i++ {
		d.grad[i] -= d.c[i]
	}
}

// NewtonStep solves the Newton system H·dir = −g at λ with the
// structured step (newton.go); it implements solver.StepObjective.
func (d *dualObjective) NewtonStep(lambda, g, dir []float64) bool {
	return d.step.solve(lambda, g, dir)
}

// Package solver provides the unconstrained numerical optimizers used to
// minimize the MaxEnt dual: a hand-rolled limited-memory BFGS (the paper
// solves its Lagrangian dual with Nocedal's LBFGS [16]) with a strong-Wolfe
// line search, and a steepest-descent baseline for the Malouf-style
// algorithm comparison referenced in Sec. 3.3.
package solver

import (
	"errors"
	"math"
	"time"
)

// Objective is a smooth function f: ℝⁿ → ℝ with gradient. Eval must write
// the gradient at x into grad (len == Dim) and return f(x). The
// optimizers evaluate each point once, their starting point first: an
// accepted step adopts the line search's evaluation there as the next
// iterate.
//
// The optimizers call Eval from a single goroutine, but Eval itself may
// be internally parallel (the MaxEnt dual shards its kernels over a
// worker pool). Such an objective must still behave as a pure function
// of x — same inputs, same outputs, at any internal worker count — with
// one sanctioned exception: after its cancellation signal fires it may
// return arbitrary (stale) values, provided the matching
// Options.Interrupt hook reports true from then on. The optimizers
// guarantee they poll Interrupt both at every outer iteration and
// whenever a line search stalls, so post-cancellation garbage is never
// misread as convergence or reported as a result.
type Objective interface {
	Dim() int
	Eval(x, grad []float64) float64
}

// Warm starts: every optimizer takes its starting iterate x0 explicitly,
// so seeding from a previous solution is simply passing that solution as
// x0 — convexity of the MaxEnt dual guarantees the same minimizer from
// any start, and a near-optimal seed cuts the iteration count (the effect
// Options.Trace and Result.Iterations expose). The maxent package's
// Options.WarmStart builds on exactly this entry point.

// Options tunes an optimizer run. Zero values select the defaults noted
// on each field.
type Options struct {
	// MaxIterations bounds outer iterations. Default 500.
	MaxIterations int
	// GradTol declares convergence when the gradient's infinity norm
	// falls below it. Default 1e-9.
	GradTol float64
	// Memory is the number of (s, y) correction pairs LBFGS keeps.
	// Default 10, as in Nocedal's reference implementation.
	Memory int
	// InitialStep is the first trial step of the very first line search.
	// Default 1.
	InitialStep float64
	// Trace, when non-nil, is invoked once per outer iteration with a
	// TraceEvent describing the iterate — a lightweight progress hook for
	// long solves and the raw feed for convergence-trajectory audits. When
	// a maxent solve runs with a telemetry registry in its context, a
	// recorder feeding the pmaxent_dual_* series is chained in front of
	// this callback; both fire. If the iteration budget runs out, one
	// extra event with Iteration == MaxIterations reports the final
	// iterate, so the trace always ends at the returned point.
	Trace func(TraceEvent)
	// Interrupt, when non-nil, is polled once per outer iteration — and
	// again when a line search stalls, so an internally-parallel
	// objective whose kernels drained mid-evaluation surfaces as
	// ErrInterrupted rather than as a bogus stalled result (see
	// Objective). When it returns true the optimizer abandons the run
	// and returns ErrInterrupted. Parallel component solves use it to
	// cancel in-flight siblings as soon as one component fails; maxent
	// also chains context cancellation through it.
	Interrupt func() bool
}

// TraceEvent is one point of an optimizer's convergence trajectory, handed
// to Options.Trace at the top of every outer iteration. Step and
// LineSearchEvals describe the line search that *produced* the current
// iterate, so they are zero on the very first event (no step has been
// taken yet) and for optimizers without a line search (GIS/IIS-style
// scaling methods report Step = 0).
type TraceEvent struct {
	// Iteration is the 0-based outer iteration number.
	Iteration int
	// F is the objective value at the current iterate.
	F float64
	// GradNorm is the infinity norm of the gradient at the current
	// iterate (for scaling methods: the worst constraint deviation).
	GradNorm float64
	// Step is the accepted step length of the line search that produced
	// this iterate (0 on the first event).
	Step float64
	// LineSearchEvals counts objective evaluations spent by that line
	// search (0 on the first event). The iterate adopts the search's
	// last evaluation, so a run that converges or exhausts its budget
	// makes 1 + Σ LineSearchEvals evaluations in all.
	LineSearchEvals int
}

// IterationCap is the outer-iteration budget a run with these options
// gets: MaxIterations, or its default when unset. A run that stops
// unconverged with fewer iterations ended in a line-search stall.
func (o Options) IterationCap() int { return o.withDefaults().MaxIterations }

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 500
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-9
	}
	if o.Memory <= 0 {
		o.Memory = 10
	}
	if o.InitialStep <= 0 {
		o.InitialStep = 1
	}
	return o
}

// Result reports the outcome of an optimizer run.
type Result struct {
	// X is the final iterate.
	X []float64
	// F is the objective value at X.
	F float64
	// GradNorm is the infinity norm of the gradient at X.
	GradNorm float64
	// Iterations is the number of outer iterations performed; the paper's
	// Figure 7 reports this quantity.
	Iterations int
	// Evaluations counts calls to Objective.Eval.
	Evaluations int
	// Converged reports whether GradTol was reached (as opposed to
	// stopping on the iteration budget or a stalled line search).
	Converged bool
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// ErrNonFinite is returned when the objective produces NaN or ±Inf at the
// starting point, which indicates an infeasible or mis-scaled problem.
var ErrNonFinite = errors.New("solver: objective is not finite at the starting point")

// ErrInterrupted is returned when Options.Interrupt asked the optimizer
// to stop before reaching its tolerance or iteration budget.
var ErrInterrupted = errors.New("solver: interrupted")

// interrupted polls the Interrupt hook (nil-safe).
func (o Options) interrupted() bool { return o.Interrupt != nil && o.Interrupt() }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(x []float64) bool {
	for _, v := range x {
		if !finite(v) {
			return false
		}
	}
	return true
}

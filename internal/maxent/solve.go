package maxent

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/linalg"
	"privacymaxent/internal/pool"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
)

// Algorithm selects the numerical method for the dual minimization.
type Algorithm int

const (
	// Auto, the default, picks a dual method per decomposition component:
	// the structured Newton step for components with 32 to 512 coupling
	// (knowledge) rows, LBFGS for the rest (DESIGN §6.7). A component
	// whose Newton run stops unconverged before the iteration cap is
	// solved once more by LBFGS from zero, both runs charged to it.
	Auto Algorithm = iota
	// LBFGS is the paper's choice (Nocedal's limited-memory BFGS).
	LBFGS
	// SteepestDescent is the slow first-order baseline.
	SteepestDescent
	// GIS is Darroch & Ratcliff's generalized iterative scaling, one of
	// the maxent-specific methods the paper cites (Sec. 3.3).
	GIS
	// Newton is the damped Newton method, on every component. Its step
	// eliminates the bucket blocks of the Hessian and factors the k×k
	// Schur complement over the k coupling rows, so a step costs O(k³).
	Newton
	// IIS is Della Pietra et al.'s improved iterative scaling, the other
	// maxent-specific method the paper cites (Sec. 3.3).
	IIS
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case LBFGS:
		return "lbfgs"
	case SteepestDescent:
		return "steepest"
	case GIS:
		return "gis"
	case Newton:
		return "newton"
	case IIS:
		return "iis"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is the inverse of String, ignoring case; the empty name
// selects the default, Auto.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return Auto, nil
	}
	for a := Auto; a <= IIS; a++ {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want auto, lbfgs, gis, iis, steepest or newton)", name)
}

// Options configures SolveContext and its siblings.
type Options struct {
	// Algorithm picks the dual solver; default Auto.
	Algorithm Algorithm
	// Solver tunes the underlying optimizer.
	Solver solver.Options
	// Decompose enables the Sec. 5.5 optimization: buckets irrelevant to
	// the background knowledge (Definition 5.6) take their closed-form
	// within-bucket MaxEnt distribution (Theorem 5 / Proposition 1), and
	// the relevant buckets split into connected components — groups of
	// buckets linked through shared knowledge constraints, the converse
	// of Lemma 2's independence — each solved as an independent
	// sub-problem.
	Decompose bool
	// Workers sizes the one worker pool a solve draws all its
	// parallelism from. The zero value means runtime.GOMAXPROCS(0);
	// negative values (or 1) solve serially. When Decompose is on, up to
	// Workers components are solved concurrently — they touch disjoint
	// variables, so no locking of the solution vector is needed — and
	// the count actually used is recorded in Stats.Workers. Inside each
	// dual solve, the fused Aᵀλ → exp → partition kernel and the blocked
	// A·x(λ) gradient kernel shard a fixed block partition over up to
	// Workers goroutines from the same pool, so the two levels never
	// oversubscribe it; this keeps a solve parallel where decomposition
	// goes idle (knowledge coupling every bucket into one component).
	// Kernel results are bit-identical at every width (the partition and
	// the reduction order are functions of the problem shape, never of
	// the worker count), so Workers trades wall-clock only, never
	// numerics. The kernel width is recorded in Stats.KernelWorkers.
	// Only the dual algorithms (Auto, LBFGS, SteepestDescent, Newton)
	// have data-parallel kernels; GIS and IIS run serially regardless.
	// Newton's step solve runs on the component's goroutine.
	Workers int
	// CaptureTrace records the full convergence trajectory — one
	// TracePoint per optimizer iteration — into Solution.Trajectory, the
	// raw material for solve audits. Off by default: capture allocates
	// per iteration, so the hot path (benchmarks, sweeps without
	// auditing) keeps its zero-overhead trace-less behaviour.
	CaptureTrace bool
	// WarmStart seeds the dual multipliers λ from a previous solution's
	// Duals, matched by constraint label; rows absent from the seed start
	// at zero and seed entries whose labels no longer survive presolve
	// are ignored. The dual is strictly convex, so the minimizer is the
	// same from any start and a seed from a nearby problem (the previous
	// grid point of a sweep) only saves iterations. A seed from a
	// different problem can start far up the dual, though — multipliers
	// fitted to knowledge the new system lacks can put x(λ) near overflow
	// — so two rules keep it from changing the answer. A component starts
	// from its seed only when g(seed) ≤ g(0) = n_active/e, the value at
	// the zero start; otherwise it starts at zero, and that evaluation is
	// counted in Stats.Evaluations. A component that did start from its
	// seed and still stops unconverged before the iteration cap (a
	// line-search stall) is solved once more from zero, both attempts
	// charged to it. A capped solve is never retried: its endpoint depends
	// on the start either way. Only the dual algorithms (Auto, LBFGS,
	// SteepestDescent, Newton) consume the seed; the scaling algorithms
	// (GIS, IIS) ignore it.
	WarmStart []ConstraintDual
}

// warmMap indexes the warm-start seed by constraint label; nil when no
// seed was provided.
func (o Options) warmMap() map[string]float64 {
	if len(o.WarmStart) == 0 {
		return nil
	}
	m := make(map[string]float64, len(o.WarmStart))
	for _, d := range o.WarmStart {
		m[d.Label] = d.Lambda
	}
	return m
}

// WorkerCount resolves Options.Workers: the zero value means
// runtime.GOMAXPROCS(0); negative values solve sequentially.
func (o Options) WorkerCount() int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chainInterrupt folds the context's cancellation into the solver's
// Interrupt hook (in front of any caller-supplied hook), so a cancelled
// context stops a dual solve at its next interrupt poll — the guarantee
// the mid-kernel cancellation path relies on: a cancelled kernel region
// drains without finishing its blocks, and the optimizer then observes
// the interrupt before consuming the stale buffers.
func chainInterrupt(ctx context.Context, opts Options) Options {
	done := ctx.Done()
	if done == nil {
		return opts
	}
	prev := opts.Solver.Interrupt
	opts.Solver.Interrupt = func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return prev != nil && prev()
	}
	return opts
}

// emit delivers one lifecycle event (solve.start, decompose, presolve,
// presolve.infeasible, component.done, solve.done, solve.failed) to both
// of the context's sinks from a single attribute list: the solve-event
// logger, at Error level for failures and Info otherwise, and the solve
// observer that feeds the live introspection layer (pmaxentd's
// /debug/solves and SSE streams; the per-iteration SolveIteration signal
// is wired into the solver trace chain in solveReduced). It is the only
// caller of either sink, so the two channels cannot drift apart.
func emit(ctx context.Context, name string, attrs ...telemetry.Attr) {
	level := slog.LevelInfo
	if name == "solve.failed" || name == "presolve.infeasible" {
		level = slog.LevelError
	}
	if logger := telemetry.Logger(ctx); logger.Enabled(ctx, level) {
		args := make([]slog.Attr, len(attrs))
		for i, a := range attrs {
			args[i] = slog.Any(a.Key, a.Value)
		}
		logger.LogAttrs(ctx, level, name, args...)
	}
	if obs := telemetry.SolveObserverFrom(ctx); obs != nil {
		obs.SolveEvent(name, attrs...)
	}
}

// runSolve brackets one solve's lifecycle: it opens the span named span
// and emits solve.start, both carrying the start attributes, then runs
// body. A failing body closes the solve with solve.failed; otherwise
// stats.Duration is stamped, the solve metrics are recorded
// (totalBuckets feeds the decomposition hit-rate counters) and
// solve.done goes out, its attributes also set on the span. Every solve
// that starts therefore also finishes, whichever way body returns.
func runSolve(ctx context.Context, span string, start []telemetry.Attr, stats *Stats, totalBuckets int, body func(context.Context) error) error {
	began := time.Now()
	ctx, sp := telemetry.Start(ctx, span, start...)
	defer sp.End()
	emit(ctx, "solve.start", start...)
	if err := body(ctx); err != nil {
		emit(ctx, "solve.failed", telemetry.String("error", err.Error()))
		return err
	}
	stats.Duration = time.Since(began)
	done := stats.attrs()
	sp.SetAttr(done...)
	stats.record(telemetry.Metrics(ctx), totalBuckets)
	emit(ctx, "solve.done", done...)
	return nil
}

// minParallelBlocks is the smallest block count worth fanning out: below
// it the enlist/wait synchronization of a ParallelFor costs more than the
// one or two blocks of arithmetic it distributes. Small decomposed
// components therefore run their kernels serially — which changes nothing
// numerically, since the serial path sums the identical blocks in the
// identical order.
const minParallelBlocks = 4

// kernelRunner adapts the shared worker pool into the block executor the
// dual kernels fan out on, using up to every worker of the pool. It
// returns nil — serial kernels — for a one-worker pool.
func kernelRunner(ctx context.Context, p *pool.Pool) linalg.Runner {
	if p.Workers() < 2 {
		return nil
	}
	return func(n int, fn func(i int)) {
		if n < minParallelBlocks {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		p.ParallelFor(ctx, n, 0, fn)
	}
}

// ConstraintDual pairs a constraint with its Lagrange multiplier at the
// solution — its shadow price. Large-magnitude multipliers mark the
// constraints that most strongly shape the MaxEnt distribution; for
// knowledge rows this is a direct influence measure of each background
// fact (only available from the dual algorithms, i.e. not GIS/IIS
// scaling paths, and only for rows that survive presolve).
type ConstraintDual struct {
	Label  string
	Kind   constraint.Kind
	Lambda float64
}

// TracePoint is one recorded iteration of the convergence trajectory
// (Options.CaptureTrace). For the dual algorithms, Objective is the dual
// value g(λ) and GradNorm the dual gradient's infinity norm; for the
// scaling algorithms (GIS/IIS), Objective is the entropy of the current
// model and GradNorm the worst constraint deviation — the quantity their
// convergence test uses. Step and LineSearchEvals describe the line
// search that produced the iterate (always zero for scaling algorithms,
// which have no line search).
type TracePoint struct {
	// Component is the decomposition component the iteration belongs to
	// (0 when the solve was not decomposed).
	Component int `json:"component"`
	// Iteration numbers the point 1..k within its component.
	Iteration int `json:"iteration"`
	// Objective is the dual value (or entropy for scaling algorithms).
	Objective float64 `json:"objective"`
	// GradNorm is the gradient infinity norm (or worst deviation).
	GradNorm float64 `json:"grad_norm"`
	// Step is the accepted line-search step length.
	Step float64 `json:"step"`
	// LineSearchEvals counts objective evaluations the line search spent.
	LineSearchEvals int `json:"line_search_evals"`
}

// Solution is a maximum-entropy assignment of every probability term.
type Solution struct {
	space *constraint.Space
	// X holds P(Q,S,B) for every term in the space.
	X []float64
	// Stats describes the solve.
	Stats Stats
	// Duals holds the Lagrange multipliers of the surviving constraints
	// (empty for scaling algorithms, which do not expose a meaningful
	// per-row multiplier in the same normalization).
	Duals []ConstraintDual
	// Trajectory holds the per-iteration convergence record when
	// Options.CaptureTrace was set, ordered by component then iteration.
	// Its length equals Stats.Iterations.
	Trajectory []TracePoint
}

// Space returns the term space the solution is indexed by.
func (s *Solution) Space() *constraint.Space { return s.space }

// Joint returns P(q, s, b), zero for terms outside the space.
func (s *Solution) Joint(t constraint.Term) float64 {
	id, ok := s.space.Index(t)
	if !ok {
		return 0
	}
	return s.X[id]
}

// SolveConstraintsContext is the low-level entry point: it maximizes
// entropy over n variables subject to the given constraints, starting
// the bookkeeping from init (variables never mentioned by any constraint
// keep their init value; everything else is determined by presolve or
// the dual). It powers both the standard P(Q,S,B) model and the
// pseudonym-expanded P(i,Q,S,B) model of Sec. 6. The caller's rows form
// one undecomposed component; the context's tracer receives a
// "maxent.solve_constraints" span and its registry the solve metrics.
func SolveConstraintsContext(ctx context.Context, n int, cons []constraint.Constraint, init []float64, opts Options) ([]float64, Stats, error) {
	if len(init) != n {
		return nil, Stats{}, fmt.Errorf("maxent: init has %d values, want %d", len(init), n)
	}
	sol := &Solution{X: append([]float64(nil), init...)}
	start := []telemetry.Attr{
		telemetry.String("algorithm", opts.Algorithm.String()),
		telemetry.Int("variables", n),
		telemetry.Int("constraints", len(cons)),
	}
	err := runSolve(ctx, "maxent.solve_constraints", start, &sol.Stats, 0, func(ctx context.Context) error {
		// Term/coeff slices are shared with the caller's constraints, not
		// copied: presolve is copy-on-write (see rowOf).
		rows := make([]rowData, 0, len(cons))
		for i := range cons {
			rows = append(rows, rowOf(&cons[i]))
		}
		if err := solveComponents(ctx, sol, []solveComponent{{rows: rows}}, opts, false); err != nil {
			return err
		}
		sol.Stats.MaxViolation = maxViolationOf(cons, sol.X)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return sol.X, sol.Stats, nil
}

// maxViolationOf computes the worst |residual| of a constraint list at x.
func maxViolationOf(cons []constraint.Constraint, x []float64) float64 {
	var worst float64
	for i := range cons {
		if r := cons[i].Residual(x); r > worst {
			worst = r
		} else if -r > worst {
			worst = -r
		}
	}
	return worst
}

// SolveContext computes the maximum-entropy distribution subject to the
// system's constraints. The system must contain the data invariants (and
// any knowledge constraints); zero-invariants are implicit in the space.
// With Decompose the components are the connected components of the
// touched buckets (componentRows) and the untouched buckets keep their
// closed form; otherwise the whole system is one component. The
// context's tracer receives a "maxent.solve" span (with presolve,
// decomposition and per-component child spans) and its registry the
// solve metrics.
func SolveContext(ctx context.Context, sys *constraint.System, opts Options) (*Solution, error) {
	return solveSystem(ctx, "maxent.solve", sys, opts, false, func(ctx context.Context, sol *Solution, touched []int) []solveComponent {
		if !opts.Decompose {
			return []solveComponent{{rows: systemRows(sys)}}
		}
		_, span := telemetry.Start(ctx, "maxent.decompose")
		comps := componentRows(sys, touched)
		attrs := sol.decomposition(len(touched), len(comps))
		span.SetAttr(attrs...)
		span.End()
		emit(ctx, "decompose", attrs...)
		return comps
	})
}

// solveSystem runs one equality solve of sys through the shared driver:
// build turns the system into the component list, given the buckets some
// coupling row touches (computed only under Decompose). delta marks the
// incremental entry point in the solve.start event.
func solveSystem(ctx context.Context, span string, sys *constraint.System, opts Options, delta bool,
	build func(ctx context.Context, sol *Solution, touched []int) []solveComponent) (*Solution, error) {
	sp := sys.Space()
	buckets := sp.Data().NumBuckets()
	var touched []int
	if opts.Decompose {
		touched = constraint.TouchedBuckets(sys)
	}
	sol := &Solution{space: sp, X: Uniform(sp)}
	start := []telemetry.Attr{
		telemetry.String("algorithm", opts.Algorithm.String()),
		telemetry.Bool("decompose", opts.Decompose),
	}
	if delta {
		start = append(start, telemetry.Bool("delta", true))
	}
	start = append(start,
		telemetry.Int("variables", sp.Len()),
		telemetry.Int("constraints", sys.Len()))
	err := runSolve(ctx, span, start, &sol.Stats, buckets, func(ctx context.Context) error {
		if err := solveComponents(ctx, sol, build(ctx, sol, touched), opts, opts.Decompose); err != nil {
			return err
		}
		sol.Stats.MaxViolation = sys.MaxViolation(sol.X)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// decomposition records a decomposition's split of the buckets — relevant
// ones (Definition 5.6, generalized by TouchedBuckets to every coupling
// kind) into components, the rest closed-form — and returns the
// attributes of its decompose event.
func (s *Solution) decomposition(relevant, components int) []telemetry.Attr {
	s.Stats.IrrelevantBuckets = s.space.Data().NumBuckets() - relevant
	return []telemetry.Attr{
		telemetry.Int("relevant_buckets", relevant),
		telemetry.Int("irrelevant_buckets", s.Stats.IrrelevantBuckets),
		telemetry.Int("components", components),
	}
}

// runPresolve wraps presolve in a "maxent.presolve" span.
func runPresolve(ctx context.Context, n int, rows []rowData) (*reduced, error) {
	_, span := telemetry.Start(ctx, "maxent.presolve", telemetry.Int("rows", len(rows)))
	defer span.End()
	red, err := presolve(n, rows)
	if err != nil {
		emit(ctx, "presolve.infeasible", telemetry.String("error", err.Error()))
		return nil, err
	}
	span.SetAttr(
		telemetry.Int("fixed", red.numFixed()),
		telemetry.Int("active", len(red.active)))
	emit(ctx, "presolve",
		telemetry.Int("rows", len(rows)),
		telemetry.Int("fixed", red.numFixed()),
		telemetry.Int("active", len(red.active)))
	return red, nil
}

// componentRows turns the system's connected components over the
// touched buckets (constraint.Components, the partition the delta
// differ also uses) into solve components: each receives its buckets'
// data invariants and its coupling rows, in system order, components in
// ascending root order. Rows share the system's term/coeff slices —
// presolve is copy-on-write, so the shared storage stays untouched even
// when components are solved concurrently.
func componentRows(sys *constraint.System, touched []int) []solveComponent {
	comps := constraint.Components(sys, touched)
	out := make([]solveComponent, len(comps))
	for i, c := range comps {
		rows := make([]rowData, len(c.Rows))
		for k, ri := range c.Rows {
			rows[k] = rowOf(sys.At(ri))
		}
		out[i] = solveComponent{rows: rows}
	}
	return out
}

// solveComponent is one unit of the component fan-out: either a set of
// rows to presolve and solve numerically, or — on the delta path — a
// reuse record that copies a baseline's converged posterior slice and
// duals verbatim instead of solving. dirty marks numerically solved
// components that a delta classification flagged as changed, so the
// ReusedComponents/DirtyComponents counters stay zero on cold solves.
type solveComponent struct {
	rows  []rowData
	dirty bool
	reuse *componentReuse
}

// componentReuse transfers one clean component from a baseline solution:
// src's values for every term of the listed buckets are copied into the
// new solution bit-for-bit, and duals carries the baseline multipliers
// already relabeled for the new system's rows.
type componentReuse struct {
	buckets []int
	src     []float64
	duals   []ConstraintDual
}

// solveComponents is the one driver behind every equality solve: it
// presolves and solves each component, sequentially or with up to
// Options.WorkerCount() goroutines (Workers zero means GOMAXPROCS), and
// fills sol's X, Duals, Trajectory and Stats. Components write disjoint
// slices of sol.X; the stats are merged under a mutex. Components
// carrying a reuse record skip the numeric solve entirely and copy their
// baseline slice instead (delta solves, zero iterations).
//
// decomposed marks a list produced by splitting the system: each
// component then gets its own "maxent.solve.component" span and
// component.done event, Stats.Components counts the list and
// Stats.Workers the component fan-out. An undecomposed list is a single
// component solved directly under the caller's span, Stats.Components
// stays 0 and Stats.Workers reports the kernel width — the solve's
// actual parallelism.
//
// The first component to fail cancels the run: in-flight siblings are
// stopped via the solver's Interrupt hook (chained with any
// caller-supplied hook), and not-yet-started components are skipped. The
// error reported is the original failure, never a sibling's
// solver.ErrInterrupted — the failing component records its error before
// cancelling, so interrupted siblings always find firstErr already set.
func solveComponents(ctx context.Context, sol *Solution, components []solveComponent, opts Options, decomposed bool) error {
	n := len(sol.X)
	workers := opts.WorkerCount()
	fanOut := min(workers, max(len(components), 1))
	sol.Stats.Workers = 1
	sol.Stats.KernelWorkers = 1
	sol.Stats.Converged = true
	if decomposed {
		sol.Stats.Components = len(components)
		sol.Stats.Workers = fanOut
	}
	if len(components) == 0 {
		return nil // nothing touched: the closed form is exact (Theorem 4)
	}
	reg := telemetry.Metrics(ctx)
	warm := opts.warmMap()

	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts = chainInterrupt(cancelCtx, opts)

	// One pool serves both parallelism levels: the component fan-out
	// below and the blocked dual kernels inside each component solve.
	// Its size bounds the total number of active goroutines — a kernel
	// region only enlists workers that are idle right now — so component-
	// times-kernel parallelism can never oversubscribe the budget. Few
	// large components leave workers idle at the component level for the
	// kernels to pick up; many small components keep the pool busy at the
	// component level and the kernels run serially.
	p := pool.New(workers)
	defer p.Close()

	// Duals and trajectories are collected per component and flattened in
	// component order after the parallel loop, keeping the output
	// deterministic.
	dualsByComp := make([][]ConstraintDual, len(components))
	trajByComp := make([][]TracePoint, len(components))
	var mu sync.Mutex
	var firstErr error
	run := func(ci int, comp solveComponent) {
		if cancelCtx.Err() != nil {
			return // a sibling already failed; skip un-started work
		}
		if re := comp.reuse; re != nil {
			// Clean component: the baseline solved an identical subproblem,
			// so its slice of X transfers bit-for-bit — including the
			// presolve-fixed terms, since a component's buckets cover every
			// term its rows and fixings mention. Zero iterations.
			_, span := telemetry.Start(cancelCtx, "maxent.solve.component",
				telemetry.Int("component", ci),
				telemetry.Bool("reused", true))
			terms := 0
			for _, b := range re.buckets {
				for _, t := range sol.space.TermsInBucket(b) {
					sol.X[t] = re.src[t]
					terms++
				}
			}
			span.SetAttr(telemetry.Int("terms", terms))
			span.End()
			emit(ctx, "component.done",
				telemetry.Int("component", ci),
				telemetry.Int("active", 0),
				telemetry.Int("iterations", 0),
				telemetry.Bool("converged", true),
				telemetry.Bool("reused", true))
			mu.Lock()
			sol.Stats.ReusedComponents++
			dualsByComp[ci] = re.duals
			mu.Unlock()
			return
		}
		cctx := cancelCtx
		var span *telemetry.Span
		if decomposed {
			cctx, span = telemetry.Start(cancelCtx, "maxent.solve.component",
				telemetry.Int("component", ci),
				telemetry.Int("rows", len(comp.rows)))
		}
		red, err := runPresolve(cctx, n, comp.rows)
		var local Stats
		var duals []ConstraintDual
		var traj []TracePoint
		if err == nil {
			local.FixedVariables = red.numFixed()
			local.ActiveVariables = len(red.active)
			local.Converged = true
			if decomposed {
				reg.Histogram("pmaxent_component_active_variables", telemetry.CountBuckets).
					Observe(float64(len(red.active)))
			}
			if len(red.active) > 0 {
				// solveReduced mutates only this component's entries of
				// sol.X (disjoint across components) and local stats.
				ls := &Solution{X: sol.X}
				err = solveReduced(cctx, ls, red, warm, opts, kernelRunner(cctx, p), ci)
				local.Iterations = ls.Stats.Iterations
				local.Evaluations = ls.Stats.Evaluations
				local.Converged = ls.Stats.Converged
				local.KernelWorkers = ls.Stats.KernelWorkers
				local.ReducedDualDim = ls.Stats.ReducedDualDim
				duals = ls.Duals
				for k := range ls.Trajectory {
					ls.Trajectory[k].Component = ci
				}
				traj = ls.Trajectory
			}
			if err == nil {
				for j := 0; j < red.n; j++ {
					if red.fixed[j] {
						sol.X[j] = red.value[j]
					}
				}
			}
		}
		if decomposed {
			span.SetAttr(
				telemetry.Int("active", local.ActiveVariables),
				telemetry.Int("iterations", local.Iterations),
				telemetry.Bool("converged", local.Converged))
			span.End()
			if err == nil {
				emit(ctx, "component.done",
					telemetry.Int("component", ci),
					telemetry.Int("active", local.ActiveVariables),
					telemetry.Int("iterations", local.Iterations),
					telemetry.Bool("converged", local.Converged))
			}
		}
		if comp.dirty {
			local.DirtyComponents = 1
		}
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil {
			sol.Stats.Merge(local)
			dualsByComp[ci] = duals
			trajByComp[ci] = traj
		}
		mu.Unlock()
		if err != nil {
			// Cancel after recording the error so that siblings returning
			// ErrInterrupted never mask the root cause.
			cancel()
		}
	}

	// The component fan-out is capped at fanOut even though the pool is
	// sized for the kernels; the failure path cancels cancelCtx, which
	// both stops ParallelFor from starting further components and
	// interrupts in-flight sibling solves.
	p.ParallelFor(cancelCtx, len(components), fanOut, func(ci int) {
		run(ci, components[ci])
	})
	if firstErr != nil {
		return firstErr
	}
	// External cancellation with no component failure: components that
	// never started were silently skipped above, so a nil return here
	// would hand back a partially solved X as if it were complete.
	if ctx.Err() != nil {
		return fmt.Errorf("maxent: solve canceled: %w", solver.ErrInterrupted)
	}
	if !decomposed {
		sol.Stats.Workers = sol.Stats.KernelWorkers
	}
	for _, ds := range dualsByComp {
		sol.Duals = append(sol.Duals, ds...)
	}
	for _, ts := range trajByComp {
		sol.Trajectory = append(sol.Trajectory, ts...)
	}
	return nil
}

// solveReduced runs the selected algorithm on the presolved system and
// writes the active variables' values into sol.X. warm, when non-nil,
// maps constraint labels to dual multipliers used to seed λ, under the
// seed guard and the single zero-start retry Options.WarmStart
// describes. run, when non-nil, is the block executor the dual kernels
// shard their work onto; the scaling algorithms (GIS, IIS) ignore it.
// comp names the decomposition component the reduced system
// belongs to (0 when not decomposed) and labels the live-progress
// signal. The context's registry receives an iteration counter — and
// the context's solve observer the per-iteration progress feed — via
// telemetry-backed recorders chained in front of any user-supplied
// solver trace callback.
func solveReduced(ctx context.Context, sol *Solution, red *reduced, warm map[string]float64, opts Options, run linalg.Runner, comp int) error {
	if obs := telemetry.SolveObserverFrom(ctx); obs != nil {
		prev := opts.Solver.Trace
		opts.Solver.Trace = func(ev solver.TraceEvent) {
			obs.SolveIteration(comp, ev.Iteration, ev.F, ev.GradNorm)
			if prev != nil {
				prev(ev)
			}
		}
	}
	if reg := telemetry.Metrics(ctx); reg != nil {
		iters := reg.Counter("pmaxent_dual_iterations_total")
		grad := reg.Gauge("pmaxent_dual_last_grad_norm")
		prev := opts.Solver.Trace
		opts.Solver.Trace = func(ev solver.TraceEvent) {
			iters.Add(1)
			grad.Set(ev.GradNorm)
			if prev != nil {
				prev(ev)
			}
		}
	}
	if opts.CaptureTrace {
		// Record every iteration into the trajectory. The dual solvers
		// fire an extra event at iteration 0 (the starting point, before
		// any step); dropping it keeps len(Trajectory) == Stats.Iterations
		// across all algorithms — the scaling methods number their rounds
		// from 1.
		prev := opts.Solver.Trace
		opts.Solver.Trace = func(ev solver.TraceEvent) {
			if ev.Iteration > 0 {
				sol.Trajectory = append(sol.Trajectory, TracePoint{
					Iteration:       ev.Iteration,
					Objective:       ev.F,
					GradNorm:        ev.GradNorm,
					Step:            ev.Step,
					LineSearchEvals: ev.LineSearchEvals,
				})
			}
			if prev != nil {
				prev(ev)
			}
		}
	}

	// Assemble A over active columns. One column-index scratch serves all
	// rows: AppendRow copies it into the matrix's own storage.
	a := linalg.NewCSR(len(red.active))
	rhs := make([]float64, 0, len(red.rows))
	var cols []int
	for _, row := range red.rows {
		if cap(cols) < len(row.terms) {
			cols = make([]int, len(row.terms))
		}
		cols = cols[:len(row.terms)]
		for k, j := range row.terms {
			cols[k] = red.newIdx[j]
			if cols[k] < 0 {
				return fmt.Errorf("maxent: internal error: surviving row %q references non-active variable", row.label)
			}
		}
		if err := a.AppendRow(cols, row.coeffs); err != nil {
			return fmt.Errorf("maxent: assembling reduced system: %w", err)
		}
		rhs = append(rhs, row.rhs)
	}

	xActive := make([]float64, len(red.active))
	switch opts.Algorithm {
	case GIS, IIS:
		scale := runGIS
		if opts.Algorithm == IIS {
			scale = runIIS
		}
		res, err := scale(a, rhs, red, opts)
		if err != nil {
			return err
		}
		copy(xActive, res.x)
		sol.Stats.Iterations = res.iterations
		sol.Stats.Evaluations = res.iterations
		sol.Stats.Converged = res.converged
		sol.Stats.KernelWorkers = 1 // scaling loops have no parallel kernels
		sol.Stats.ReducedDualDim = a.Rows()
		// No explicit iteration-counter add here: the scaling loops fire
		// the (telemetry-wrapped) trace callback once per round, so the
		// pmaxent_dual_iterations_total series is already fed.
	case Auto, LBFGS, SteepestDescent, Newton:
		sol.Stats.KernelWorkers = 1
		if run != nil {
			sol.Stats.KernelWorkers = opts.WorkerCount()
		}
		obj := newDualObjective(a, rhs)
		obj.setRunner(run)
		defer obj.release()
		sol.Stats.ReducedDualDim = a.Rows()
		alg, step := componentMethod(opts.Algorithm, obj, red.rows)
		obj.step = step
		optimize := func(alg Algorithm, f solver.StepObjective, lambda0 []float64) (solver.Result, error) {
			switch alg {
			case LBFGS:
				return solver.LBFGS(f, lambda0, opts.Solver)
			case Newton:
				return solver.Newton(f, lambda0, opts.Solver)
			default:
				return solver.SteepestDescent(f, lambda0, opts.Solver)
			}
		}
		seeded, guardEvals := obj.seed(red.rows, warm)
		var res solver.Result
		var err error
		if seeded != nil {
			res, err = optimize(alg, seeded, seeded.lambda)
		} else {
			res, err = optimize(alg, obj, make([]float64, a.Rows()))
		}
		// A run that stops unconverged before the cap (a stall) is solved
		// once more from zero when it started from a seed, or when Auto
		// picked Newton for it — then by LBFGS. The counts of both runs add
		// up, and the trajectory keeps both, so its length still matches
		// Stats.Iterations.
		retry := alg
		if opts.Algorithm == Auto {
			retry = LBFGS
		}
		if err == nil && !res.Converged && res.Iterations < opts.Solver.IterationCap() && (seeded != nil || retry != alg) {
			first := res
			res, err = optimize(retry, obj, make([]float64, a.Rows()))
			res.Iterations += first.Iterations
			res.Evaluations += first.Evaluations
		}
		if err != nil {
			return fmt.Errorf("maxent: dual optimization: %w", err)
		}
		obj.Primal(res.X, xActive)
		sol.Stats.Iterations = res.Iterations
		sol.Stats.Evaluations = res.Evaluations + guardEvals
		sol.Stats.Converged = res.Converged
		for i, row := range red.rows {
			sol.Duals = append(sol.Duals, ConstraintDual{Label: row.label, Kind: row.kind, Lambda: res.X[i]})
		}
	default:
		return fmt.Errorf("maxent: unknown algorithm %v", opts.Algorithm)
	}

	for pos, j := range red.active {
		sol.X[j] = xActive[pos]
	}
	return nil
}

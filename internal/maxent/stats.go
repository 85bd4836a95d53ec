package maxent

import (
	"fmt"
	"time"

	"privacymaxent/internal/telemetry"
)

// Stats reports how a solve went — the quantities behind the paper's
// Figure 7 (running time and iteration counts).
type Stats struct {
	// Iterations is the number of optimizer iterations (GIS: scaling
	// rounds).
	Iterations int
	// Evaluations counts objective/gradient evaluations.
	Evaluations int
	// Duration is wall-clock solve time including presolve.
	Duration time.Duration
	// Converged reports whether the optimizer met its tolerance.
	Converged bool
	// MaxViolation is the worst |A x − c| entry over the *original*
	// system at the returned solution.
	MaxViolation float64
	// ActiveVariables is the number of variables given to the optimizer
	// after presolve (0 means presolve solved everything).
	ActiveVariables int
	// FixedVariables is the number of variables pinned by presolve.
	FixedVariables int
	// IrrelevantBuckets counts buckets excluded by decomposition.
	IrrelevantBuckets int
	// Components counts the independent sub-problems decomposition
	// produced (0 when decomposition is off or nothing needed solving).
	Components int
	// Workers is the number of concurrent component solvers the run
	// actually used (1 for sequential paths; see Options.Workers). For
	// non-decomposed solves — which have no component fan-out — it
	// reports the kernel width instead, the solve's actual parallelism.
	Workers int
	// KernelWorkers is the data-parallel width of the dual kernels — the
	// fused Aᵀλ → exp → partition pass and the blocked gradient pass —
	// inside a single (component) solve. 1 when the kernels ran serially
	// or the algorithm has none (GIS/IIS); see Options.Workers.
	KernelWorkers int
	// ReducedDualDim is the dimension of the dual problem the numeric
	// optimizer ran on, summed over components: the row count presolve
	// left, one multiplier per surviving row.
	ReducedDualDim int
	// ReusedComponents counts decomposition components a delta solve
	// (SolveDeltaContext) carried over verbatim from its baseline — identical
	// rows, so the converged posterior slice and duals transfer with
	// zero iterations. Always 0 for cold solves.
	ReusedComponents int
	// DirtyComponents counts components a delta solve had to re-solve
	// numerically (changed or new relative to the baseline), warm-started
	// from the baseline duals where available. Always 0 for cold solves.
	DirtyComponents int
}

// String renders the solver counters in one line, e.g.
//
//	142 iterations, 218 evaluations, 3.1ms (converged=true, max violation 2.1e-10)
//
// so commands share one format instead of hand-assembling the counts.
// The worst residual always appears — it is the feasibility signal audits
// are built on — and the worker count is added when a parallel
// decomposed solve actually used more than one.
func (s Stats) String() string {
	out := fmt.Sprintf("%d iterations, %d evaluations, %v (converged=%v, max violation %.2e)",
		s.Iterations, s.Evaluations, s.Duration.Round(time.Microsecond), s.Converged, s.MaxViolation)
	if s.Workers > 1 {
		out += fmt.Sprintf(", %d workers", s.Workers)
	}
	if s.KernelWorkers > 1 && s.KernelWorkers != s.Workers {
		out += fmt.Sprintf(", %d kernel workers", s.KernelWorkers)
	}
	if s.ReducedDualDim > 0 {
		out += fmt.Sprintf(", reduced dual dim %d", s.ReducedDualDim)
	}
	if s.ReusedComponents > 0 || s.DirtyComponents > 0 {
		out += fmt.Sprintf(", delta %d reused/%d dirty", s.ReusedComponents, s.DirtyComponents)
	}
	return out
}

// Merge folds the statistics of another (sub-)solve into s, the helper
// behind multi-component solves: counts add, convergence ANDs,
// MaxViolation and Workers take the maximum, and Duration takes the
// maximum too because component solves overlap in time — the caller
// owning the wall clock overwrites Duration afterwards if it measured
// the whole run.
func (s *Stats) Merge(o Stats) {
	s.Iterations += o.Iterations
	s.Evaluations += o.Evaluations
	s.FixedVariables += o.FixedVariables
	s.ActiveVariables += o.ActiveVariables
	s.IrrelevantBuckets += o.IrrelevantBuckets
	s.Components += o.Components
	s.ReducedDualDim += o.ReducedDualDim
	s.ReusedComponents += o.ReusedComponents
	s.DirtyComponents += o.DirtyComponents
	s.Converged = s.Converged && o.Converged
	if o.MaxViolation > s.MaxViolation {
		s.MaxViolation = o.MaxViolation
	}
	if o.Duration > s.Duration {
		s.Duration = o.Duration
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	if o.KernelWorkers > s.KernelWorkers {
		s.KernelWorkers = o.KernelWorkers
	}
}

// attrs is the solve.done attribute list: the one record a finished
// solve hands to the solve-event logger, the solve observer and its span.
func (s Stats) attrs() []telemetry.Attr {
	return []telemetry.Attr{
		telemetry.Int("iterations", s.Iterations),
		telemetry.Int("evaluations", s.Evaluations),
		telemetry.Int("components", s.Components),
		telemetry.Int("workers", s.Workers),
		telemetry.Int("kernel_workers", s.KernelWorkers),
		telemetry.Int("reduced_dual_dim", s.ReducedDualDim),
		telemetry.Int("reused_components", s.ReusedComponents),
		telemetry.Int("dirty_components", s.DirtyComponents),
		telemetry.Bool("converged", s.Converged),
		telemetry.Float("max_violation", s.MaxViolation),
		telemetry.String("duration", s.Duration.String()),
	}
}

// record publishes the solve statistics to the registry (nil-safe): one
// observation per series the paper's Figure 7 tracks, plus the
// decomposition hit-rate counters (closed-form buckets / total buckets).
func (s Stats) record(reg *telemetry.Registry, totalBuckets int) {
	if reg == nil {
		return
	}
	reg.Counter("pmaxent_solve_total").Add(1)
	reg.Histogram("pmaxent_solve_duration_seconds", telemetry.DurationBuckets).Observe(s.Duration.Seconds())
	reg.Histogram("pmaxent_solve_iterations", telemetry.CountBuckets).Observe(float64(s.Iterations))
	reg.Histogram("pmaxent_solve_evaluations", telemetry.CountBuckets).Observe(float64(s.Evaluations))
	reg.Histogram("pmaxent_solve_active_variables", telemetry.CountBuckets).Observe(float64(s.ActiveVariables))
	reg.Gauge("pmaxent_solve_workers").Set(float64(s.Workers))
	reg.Gauge("pmaxent_solve_kernel_workers").Set(float64(s.KernelWorkers))
	reg.Histogram("pmaxent_solve_reduced_dual_dim", telemetry.CountBuckets).Observe(float64(s.ReducedDualDim))
	if s.ReusedComponents > 0 {
		reg.Counter("pmaxent_solve_reused_components_total").Add(int64(s.ReusedComponents))
	}
	if s.DirtyComponents > 0 {
		reg.Counter("pmaxent_solve_dirty_components_total").Add(int64(s.DirtyComponents))
	}
	if !s.Converged {
		reg.Counter("pmaxent_solve_unconverged_total").Add(1)
	}
	if totalBuckets > 0 {
		reg.Counter("pmaxent_decompose_buckets_total").Add(int64(totalBuckets))
		reg.Counter("pmaxent_decompose_buckets_closed_form_total").Add(int64(s.IrrelevantBuckets))
	}
}

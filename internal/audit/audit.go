// Package audit turns a MaxEnt solve into an explainable numerical-health
// artifact. Where Stats compresses a solve into scalar counters, a
// SolveAudit keeps the structure the paper's guarantees live in: which
// family of constraints (QI-invariant / SA-invariant / zero-invariant /
// knowledge / individual — the rows of Theorems 1–3 plus the Top-(K+, K−)
// knowledge model) holds or is violated at the returned solution, which
// background-knowledge rule binds (large |λ|) versus is implied by the
// invariants (λ ≈ 0), how the optimizer got there (the per-iteration
// trajectory), and — when the solve failed — which labeled rows conflict.
//
// The package is read-only over its inputs: building an audit never
// mutates the system or the solution, and costs one residual pass over
// the constraints plus sorting, so it is safe to run after every solve
// that asked for one. It deliberately lives outside internal/maxent so
// the solve hot path carries no audit dependency.
package audit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"privacymaxent/internal/buildinfo"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/maxent"
)

// Options tunes audit construction.
type Options struct {
	// Top bounds the per-listing row counts (top violated rows, top
	// duals, binding knowledge rules). Default 5.
	Top int
	// Tolerance is the feasibility threshold a residual must exceed to
	// count as a violation. Default 1e-6 (matching the solver's practical
	// accuracy on the paper's workloads, well above its 1e-9 gradient
	// tolerance).
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.Top <= 0 {
		o.Top = 5
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// RowResidual is one labeled constraint row with its residual
// (LHS − RHS) at the solution.
type RowResidual struct {
	Label    string  `json:"label"`
	Family   string  `json:"family"`
	Residual float64 `json:"residual"`
}

// DualRow is one labeled constraint row with its Lagrange multiplier —
// its shadow price. For knowledge rows, |Lambda| ranks how strongly the
// rule shifts the posterior away from the invariant-only MaxEnt solution:
// near zero means the rule was already implied, large means it carries
// real adversary power.
type DualRow struct {
	Label  string  `json:"label"`
	Family string  `json:"family"`
	Lambda float64 `json:"lambda"`
}

// FamilySummary aggregates the residuals of one constraint family.
type FamilySummary struct {
	// Family is the constraint.Kind name, e.g. "QI-invariant".
	Family string `json:"family"`
	// Rows counts the family's constraints. Zero-invariants are
	// structural — the variable does not exist in the space — so their
	// row count comes from the space and their residuals are exactly 0.
	Rows int `json:"rows"`
	// MaxAbsResidual and MeanAbsResidual summarize |LHS − RHS|.
	MaxAbsResidual  float64 `json:"max_abs_residual"`
	MeanAbsResidual float64 `json:"mean_abs_residual"`
	// Violations counts rows whose |residual| exceeds the tolerance.
	Violations int `json:"violations"`
}

// TrajectoryPoint is one audit-trajectory entry: the maxent TracePoint
// plus a global 1-based index, whose final value equals
// Stats.Iterations (iterations sum across decomposition components).
type TrajectoryPoint struct {
	Index int `json:"index"`
	maxent.TracePoint
}

// Infeasibility explains a failed or infeasible-looking solve by
// pointing at the most-violated labeled rows.
type Infeasibility struct {
	Reason       string        `json:"reason"`
	MostViolated []RowResidual `json:"most_violated"`
}

// SolveAudit is the full numerical-health record of one solve.
type SolveAudit struct {
	// Converged, Iterations, Evaluations, MaxViolation mirror Stats.
	Converged    bool    `json:"converged"`
	Iterations   int     `json:"iterations"`
	Evaluations  int     `json:"evaluations"`
	MaxViolation float64 `json:"max_violation"`
	// Workers and KernelWorkers record the parallelism the solve used
	// (component fan-out and intra-solve kernel width). They are
	// informational provenance, deliberately NOT compared by
	// scripts/auditdiff: the kernels are bit-deterministic, so a serial
	// and a parallel audit of the same problem must agree on every
	// numerical field above while legitimately differing here — that
	// zero-drift comparison is exactly how kernel parity is certified.
	Workers       int `json:"workers,omitempty"`
	KernelWorkers int `json:"kernel_workers,omitempty"`
	// ReducedDualDim is the presolved row count the optimizer ran on
	// (maxent.Stats.ReducedDualDim), informational provenance like
	// Workers.
	ReducedDualDim int `json:"reduced_dual_dim,omitempty"`
	// Build stamps the binary's build provenance (version+commit, see
	// internal/buildinfo) and RequestID the serving request that asked
	// for the audit (empty for offline runs). Like Workers above, both
	// are informational provenance excluded from auditdiff comparison:
	// the same problem audited by two builds or two requests must agree
	// numerically while legitimately differing here.
	Build     string `json:"build,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Scheme names the publication scheme the quantified view was
	// declared under ("mondrian", "randomized_response", …); empty for
	// the classic default. Informational provenance like Build: the same
	// constraint system audited under two scheme declarations must agree
	// numerically, so auditdiff excludes it from comparison.
	Scheme string `json:"scheme,omitempty"`
	// Tolerance is the feasibility threshold the audit judged against.
	Tolerance float64 `json:"tolerance"`
	// Feasible reports MaxViolation <= Tolerance.
	Feasible bool `json:"feasible"`
	// Entropy is H(x) = −Σ x ln x at the solution, in nats; EntropyBits
	// the same in bits — the paper's privacy currency.
	Entropy     float64 `json:"entropy_nats"`
	EntropyBits float64 `json:"entropy_bits"`
	// DualityGap estimates g(λ) − H(x) = λᵀ(Ax − c) = Σ_i λ_i·r_i from
	// the returned duals and the original-system residuals: near zero
	// certifies joint primal–dual optimality. Only meaningful when
	// HasDuals (the scaling algorithms expose no multipliers).
	DualityGap float64 `json:"duality_gap"`
	HasDuals   bool    `json:"has_duals"`
	// Families summarizes residuals per constraint family.
	Families []FamilySummary `json:"families"`
	// TopViolations lists the worst |residual| rows by label.
	TopViolations []RowResidual `json:"top_violations"`
	// TopDuals ranks all surviving rows by |λ|; BindingKnowledge is the
	// same ranking restricted to background-knowledge rows (distribution
	// and individual kinds).
	TopDuals         []DualRow `json:"top_duals,omitempty"`
	BindingKnowledge []DualRow `json:"binding_knowledge,omitempty"`
	// Trajectory is the convergence record (present when the solve ran
	// with CaptureTrace).
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
	// Infeasibility is non-nil when the solve did not converge or the
	// solution violates the tolerance.
	Infeasibility *Infeasibility `json:"infeasibility,omitempty"`
}

// New builds the audit of sol against the system it solved. The system
// must be the same one handed to maxent.SolveContext — residuals are evaluated
// over the original (pre-presolve, pre-decomposition) rows, so every
// label a user wrote appears under its own name.
func New(sys *constraint.System, sol *maxent.Solution, opts Options) *SolveAudit {
	opts = opts.withDefaults()
	sp := sys.Space()
	a := &SolveAudit{
		Converged:      sol.Stats.Converged,
		Iterations:     sol.Stats.Iterations,
		Evaluations:    sol.Stats.Evaluations,
		MaxViolation:   sol.Stats.MaxViolation,
		Workers:        sol.Stats.Workers,
		KernelWorkers:  sol.Stats.KernelWorkers,
		ReducedDualDim: sol.Stats.ReducedDualDim,
		Build:          buildinfo.Get().String(),
		Tolerance:      opts.Tolerance,
	}

	// Residual pass over every original row, grouped by family.
	type famAgg struct {
		rows       int
		sumAbs     float64
		maxAbs     float64
		violations int
	}
	fams := map[constraint.Kind]*famAgg{}
	residuals := make([]RowResidual, 0, sys.Len())
	residualByLabel := make(map[string]float64, sys.Len())
	for i := 0; i < sys.Len(); i++ {
		c := sys.At(i)
		r := c.Residual(sol.X)
		abs := math.Abs(r)
		f := fams[c.Kind]
		if f == nil {
			f = &famAgg{}
			fams[c.Kind] = f
		}
		f.rows++
		f.sumAbs += abs
		if abs > f.maxAbs {
			f.maxAbs = abs
		}
		if abs > opts.Tolerance {
			f.violations++
		}
		residuals = append(residuals, RowResidual{Label: c.Label, Family: c.Kind.String(), Residual: r})
		residualByLabel[c.Label] = r
	}
	// Zero-invariants are structural: the space has no variable for them,
	// so they hold exactly. Report the family anyway — completeness of
	// the Theorem 1–3 accounting is the point of the breakdown.
	if nz := sp.NumZeroInvariants(); nz > 0 && fams[constraint.ZeroInvariant] == nil {
		fams[constraint.ZeroInvariant] = &famAgg{rows: nz}
	}
	kinds := make([]constraint.Kind, 0, len(fams))
	for k := range fams {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		f := fams[k]
		mean := 0.0
		if f.rows > 0 && f.sumAbs > 0 {
			mean = f.sumAbs / float64(f.rows)
		}
		a.Families = append(a.Families, FamilySummary{
			Family:          k.String(),
			Rows:            f.rows,
			MaxAbsResidual:  f.maxAbs,
			MeanAbsResidual: mean,
			Violations:      f.violations,
		})
	}

	// Top violated rows by |residual|.
	sort.SliceStable(residuals, func(i, j int) bool {
		return math.Abs(residuals[i].Residual) > math.Abs(residuals[j].Residual)
	})
	for _, r := range residuals {
		if len(a.TopViolations) == opts.Top {
			break
		}
		a.TopViolations = append(a.TopViolations, r)
	}

	// Entropy at the solution.
	var h float64
	for _, v := range sol.X {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	a.Entropy = h
	a.EntropyBits = h / math.Ln2

	// Dual attribution and the duality-gap estimate. With
	// x_j(λ) = exp(η_j − 1), −x_j ln x_j = x_j − x_j η_j, so
	// g(λ) − H(x) = λᵀ(Ax − c): the gap is computable from the duals and
	// the original residuals matched by label, no reduced system needed.
	// Rows eliminated by presolve carry λ = 0 and drop out.
	if len(sol.Duals) > 0 {
		a.HasDuals = true
		duals := make([]DualRow, 0, len(sol.Duals))
		var gap float64
		for _, d := range sol.Duals {
			duals = append(duals, DualRow{Label: d.Label, Family: d.Kind.String(), Lambda: d.Lambda})
			if r, ok := residualByLabel[d.Label]; ok {
				gap += d.Lambda * r
			}
		}
		a.DualityGap = gap
		sort.SliceStable(duals, func(i, j int) bool {
			return math.Abs(duals[i].Lambda) > math.Abs(duals[j].Lambda)
		})
		for _, d := range duals {
			if len(a.TopDuals) < opts.Top {
				a.TopDuals = append(a.TopDuals, d)
			}
			if (d.Family == constraint.Knowledge.String() || d.Family == constraint.IndividualKnowledge.String()) &&
				len(a.BindingKnowledge) < opts.Top {
				a.BindingKnowledge = append(a.BindingKnowledge, d)
			}
		}
	}

	// Trajectory with a global index whose final value equals
	// Stats.Iterations.
	for i, p := range sol.Trajectory {
		a.Trajectory = append(a.Trajectory, TrajectoryPoint{Index: i + 1, TracePoint: p})
	}

	a.Feasible = a.MaxViolation <= opts.Tolerance
	if !a.Converged || !a.Feasible {
		reason := fmt.Sprintf("max violation %.3e exceeds tolerance %.1e", a.MaxViolation, opts.Tolerance)
		if !a.Converged {
			reason = "solver did not converge"
			if !a.Feasible {
				reason += "; " + fmt.Sprintf("max violation %.3e exceeds tolerance %.1e", a.MaxViolation, opts.Tolerance)
			}
		}
		inf := &Infeasibility{Reason: reason}
		for _, r := range residuals {
			if len(inf.MostViolated) == opts.Top || math.Abs(r.Residual) <= opts.Tolerance {
				break
			}
			inf.MostViolated = append(inf.MostViolated, r)
		}
		a.Infeasibility = inf
	}
	return a
}

// WriteFile writes the audit as indented JSON.
func (a *SolveAudit) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads an audit snapshot written by WriteFile; scripts/auditdiff
// compares two of them.
func ReadFile(path string) (*SolveAudit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &SolveAudit{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("audit: parsing %s: %w", path, err)
	}
	return a, nil
}

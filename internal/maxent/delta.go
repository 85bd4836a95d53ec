package maxent

import (
	"context"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/telemetry"
)

// Baseline is the reusable outcome of a previous solve: the system it
// solved and its converged solution. SolveDeltaContext diffs a new system
// against it and re-solves only what changed.
type Baseline struct {
	Sys *constraint.System
	Sol *Solution
}

// usable reports whether the baseline can seed a delta solve of sys: it
// must exist, cover the same term space, and be converged — reusing an
// unconverged posterior would launder a failed solve into a "clean"
// component.
func (b *Baseline) usable(sys *constraint.System) bool {
	return b != nil && b.Sys != nil && b.Sol != nil &&
		b.Sys.Space() == sys.Space() &&
		b.Sol.Stats.Converged &&
		len(b.Sol.X) == sys.Space().Len()
}

// SolveDeltaContext solves sys incrementally against a baseline: the
// constraint differ (constraint.DiffSystems) classifies every connected
// component, clean components become reuse records that copy the
// baseline's converged posterior slice and duals verbatim (zero
// iterations, bit-identical by construction — the subproblem is the same
// deterministic program), and dirty or new components are re-solved
// warm-started from the baseline duals. The list runs through the same
// driver as SolveContext; Stats.ReusedComponents / Stats.DirtyComponents
// record the split. Decomposition is forced on — it is the unit of reuse
// — and an unusable baseline (nil, different space, or unconverged)
// falls back to a full SolveContext, so the delta entry point is always
// safe to call.
func SolveDeltaContext(ctx context.Context, sys *constraint.System, base *Baseline, opts Options) (*Solution, error) {
	if !base.usable(sys) {
		return SolveContext(ctx, sys, opts)
	}
	opts.Decompose = true
	// Warm-start the dirty/new components from the baseline duals; a
	// caller-supplied seed is appended after so it wins on label clashes
	// (warmMap keeps the last entry per label).
	if len(base.Sol.Duals) > 0 {
		merged := make([]ConstraintDual, 0, len(base.Sol.Duals)+len(opts.WarmStart))
		merged = append(merged, base.Sol.Duals...)
		opts.WarmStart = append(merged, opts.WarmStart...)
	}
	return solveSystem(ctx, "maxent.solve.delta", sys, opts, true, func(ctx context.Context, sol *Solution, touched []int) []solveComponent {
		_, span := telemetry.Start(ctx, "maxent.solve.diff")
		diff := &constraint.SystemDiff{}
		if len(touched) > 0 {
			diff = constraint.DiffSystems(base.Sys, sys)
		}
		span.SetAttr(
			telemetry.Int("components", len(diff.Components)),
			telemetry.Int("clean", diff.Clean),
			telemetry.Int("dirty", diff.Dirty),
			telemetry.Int("new", diff.New))
		span.End()
		emit(ctx, "decompose", sol.decomposition(len(touched), len(diff.Components))...)

		baseDual := make(map[string]float64, len(base.Sol.Duals))
		for _, d := range base.Sol.Duals {
			baseDual[d.Label] = d.Lambda
		}
		comps := make([]solveComponent, 0, len(diff.Components))
		for _, cd := range diff.Components {
			if cd.Class == constraint.DiffClean {
				// Relabel the baseline duals onto the new rows via the
				// differ's content pairing; old rows presolve dropped carry
				// no dual and are skipped — exactly as a cold solve of this
				// component would skip them.
				var duals []ConstraintDual
				for k, ri := range cd.Rows {
					if lam, ok := baseDual[base.Sys.At(cd.OldRows[k]).Label]; ok {
						c := sys.At(ri)
						duals = append(duals, ConstraintDual{Label: c.Label, Kind: c.Kind, Lambda: lam})
					}
				}
				comps = append(comps, solveComponent{
					reuse: &componentReuse{buckets: cd.Buckets, src: base.Sol.X, duals: duals},
				})
				continue
			}
			rows := make([]rowData, 0, len(cd.Rows))
			for _, ri := range cd.Rows {
				rows = append(rows, rowOf(sys.At(ri)))
			}
			comps = append(comps, solveComponent{rows: rows, dirty: true})
		}
		return comps
	})
}

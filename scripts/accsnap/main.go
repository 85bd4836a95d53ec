// Command accsnap prints a JSON snapshot of the pipeline's numerical
// outputs on the standard benchmark workload (2000 synthetic Adult
// records, Top-100 mixed knowledge, plus the Figure 5 accuracy series).
// The A/B harness (scripts/benchab) runs it in two checkouts of this
// repository and diffs the numbers: performance work must leave the
// posterior untouched, so any EstimationAccuracy drift beyond solver
// tolerance between the two snapshots fails the comparison. The gate
// solve's convergence flag and worst constraint residual (max_violation)
// say whether its accuracy is an optimum or a capped endpoint, which
// decides how benchab compares it.
//
// The workload is fully deterministic (fixed seed, no wall-clock inputs
// in the solve path), so equal code ⇒ byte-equal snapshots.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/experiments"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
)

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "accsnap:", err)
		os.Exit(1)
	}
}

// deltaParity is the PMAXENT_DELTA cross-check: solve the
// BenchmarkDeltaResolve workload (invariants + Top-(25,25), top rule
// held out of the baseline) both cold and through maxent.SolveDeltaContext, and
// fail unless the delta path actually reused components and its
// posterior scores match the cold solve to within solver tolerance. The
// returned map is merged into the snapshot for the record; the emitted
// headline numbers stay cold-path either way, so the A/B harness's
// seed-vs-head comparison is unaffected. (Direct SolveDeltaContext use
// means this file no longer compiles in pre-delta checkouts; the benchab
// cross-tree copy is only taken for same-repo env A/Bs here, which share
// one tree.)
func deltaParity(in *experiments.Instance, opts maxent.Options) (map[string]any, error) {
	ctx := context.Background()
	sp := constraint.NewSpace(in.Data)
	selected := assoc.TopK(in.Rules, 25, 25)
	base := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	for _, r := range selected[1:] {
		kn := r.Knowledge()
		c, err := kn.Constraint(sp)
		if err != nil {
			return nil, err
		}
		if err := base.Add(c); err != nil {
			return nil, err
		}
	}
	opts.Decompose = true
	opts.Solver.MaxIterations = 5000
	baseline, err := maxent.SolveContext(ctx, base, opts)
	if err != nil {
		return nil, err
	}
	if !baseline.Stats.Converged {
		return nil, fmt.Errorf("delta parity: baseline did not converge: %s", baseline.Stats)
	}
	full := base.Clone()
	kn := selected[0].Knowledge()
	c, err := kn.Constraint(sp)
	if err != nil {
		return nil, err
	}
	if err := full.Add(c); err != nil {
		return nil, err
	}
	cold, err := maxent.SolveContext(ctx, full, opts)
	if err != nil {
		return nil, err
	}
	delta, err := maxent.SolveDeltaContext(ctx, full, &maxent.Baseline{Sys: base, Sol: baseline}, opts)
	if err != nil {
		return nil, err
	}
	if delta.Stats.ReusedComponents == 0 {
		return nil, fmt.Errorf("delta parity: no components reused — delta fell back to a cold solve")
	}
	if cold.Stats.Converged != delta.Stats.Converged {
		return nil, fmt.Errorf("delta parity: convergence differs (cold %v, delta %v)", cold.Stats.Converged, delta.Stats.Converged)
	}
	accCold, err := metrics.EstimationAccuracy(in.Truth, cold.Posterior())
	if err != nil {
		return nil, err
	}
	accDelta, err := metrics.EstimationAccuracy(in.Truth, delta.Posterior())
	if err != nil {
		return nil, err
	}
	const tol = 1e-9
	accDiff := math.Abs(accCold - accDelta)
	discDiff := math.Abs(metrics.MaxDisclosure(cold.Posterior()) - metrics.MaxDisclosure(delta.Posterior()))
	if accDiff > tol || discDiff > tol {
		return nil, fmt.Errorf("delta parity: posterior diverges (accuracy diff %g, disclosure diff %g, tol %g)", accDiff, discDiff, tol)
	}
	return map[string]any{
		"delta_reused_components":   delta.Stats.ReusedComponents,
		"delta_dirty_components":    delta.Stats.DirtyComponents,
		"delta_accuracy_diff":       accDiff,
		"delta_max_disclosure_diff": discDiff,
	}, nil
}

func main() {
	deltaCheck := os.Getenv("PMAXENT_DELTA") == "1"

	in, err := experiments.NewInstance(experiments.Config{Records: 2000, Seed: 1, MaxRuleSize: 2})
	die(err)

	// The BenchmarkSolveWithKnowledge workload: invariants + Top-(50,50).
	sp := constraint.NewSpace(in.Data)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	for _, r := range assoc.TopK(in.Rules, 50, 50) {
		kn := r.Knowledge()
		c, err := kn.Constraint(sp)
		die(err)
		die(sys.Add(c))
	}
	solveOpts := maxent.Options{Decompose: true}
	sol, err := maxent.SolveContext(context.Background(), sys, solveOpts)
	die(err)
	post := sol.Posterior()
	acc, err := metrics.EstimationAccuracy(in.Truth, post)
	die(err)

	// The BenchmarkFigure5 workload: every accuracy point of the sweep.
	fig5, err := experiments.Figure5(in)
	die(err)
	var fig5Points []float64
	var fig5Conv []bool
	converged := sol.Stats.Converged
	for _, s := range fig5 {
		for _, p := range s.Points {
			fig5Points = append(fig5Points, p.Y)
			// Point.Converged is read by reflection so this program also
			// compiles in baseline checkouts that predate the field (the
			// A/B harness builds it in both trees); absent means false.
			c := reflect.ValueOf(p).FieldByName("Converged")
			fig5Conv = append(fig5Conv, c.IsValid() && c.Bool())
		}
	}

	out := map[string]any{
		"estimation_accuracy": acc,
		"max_disclosure":      metrics.MaxDisclosure(post),
		"converged":           converged,
		"max_violation":       sol.Stats.MaxViolation,
		"iterations":          sol.Stats.Iterations,
		"figure5_accuracies":  fig5Points,
		"figure5_converged":   fig5Conv,
	}
	if deltaCheck {
		extra, err := deltaParity(in, solveOpts)
		die(err)
		for k, v := range extra {
			out[k] = v
		}
	}
	die(json.NewEncoder(os.Stdout).Encode(out))
}

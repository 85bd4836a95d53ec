package maxent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
)

// workload is a random bucketized publication plus feasible knowledge
// statements touching every third QI tuple — the recipe of
// TestParallelComponentsMatchSequential, factored out for the
// warm-start, cancellation and scratch-pool tests.
type workload struct {
	tbl   *dataset.Table
	d     *bucket.Bucketized
	truth *dataset.Conditional
	ks    []constraint.DistributionKnowledge
}

func newWorkload(t *testing.T, seed int64) *workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := randomTestTable(rng, 120, 3, 5, 6)
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 3, ExemptMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{tbl: tbl, d: d, truth: truth}
	u := d.Universe()
	for qid := 0; qid < u.Len(); qid += 3 {
		for s := 0; s < d.SACardinality(); s++ {
			if truth.P(qid, s) > 0 {
				w.ks = append(w.ks, knowledgeFor(tbl, d, qid, s, truth.P(qid, s)))
				break
			}
		}
	}
	return w
}

// system builds invariants plus the given knowledge over the workload's
// publication.
func (w *workload) system(t *testing.T, ks []constraint.DistributionKnowledge) *constraint.System {
	t.Helper()
	sp := constraint.NewSpace(w.d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	if err := constraint.AddKnowledge(sys, ks...); err != nil {
		t.Fatal(err)
	}
	return sys
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestWarmStartSameProblemSkipsWork re-solves an identical system seeded
// with its own converged duals: the dual gradient is already below
// GradTol, so the warm solve must converge in strictly fewer iterations
// (here: immediately) with the same posterior.
func TestWarmStartSameProblemSkipsWork(t *testing.T) {
	w := newWorkload(t, 7)
	opts := Options{Solver: solver.Options{GradTol: 1e-8}}
	cold, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Stats.Converged || cold.Stats.Iterations == 0 {
		t.Fatalf("cold solve not meaningful: %+v", cold.Stats)
	}
	if len(cold.Duals) == 0 {
		t.Fatal("cold solve exposed no duals")
	}
	warmOpts := opts
	warmOpts.WarmStart = cold.Duals
	warm, err := SolveContext(context.Background(), w.system(t, w.ks), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Converged {
		t.Fatalf("warm solve did not converge: %+v", warm.Stats)
	}
	if warm.Stats.Iterations >= cold.Stats.Iterations {
		t.Fatalf("warm iterations = %d, want < cold %d", warm.Stats.Iterations, cold.Stats.Iterations)
	}
	if d := maxAbsDiff(cold.X, warm.X); d > 1e-9 {
		t.Fatalf("warm posterior deviates by %g", d)
	}
}

// TestWarmStartNeighborFewerIterations is the sweep scenario: solve with
// K−1 knowledge rows, then solve the K-row neighbor seeded with the
// previous duals. The shared surviving-row prefix starts at its converged
// multipliers, so only the new row's influence must be optimized — the
// posterior is identical (convex dual, start-independent optimum) but the
// iteration count drops strictly. Runs decomposed, which also exercises
// dual collection from component solves.
func TestWarmStartNeighborFewerIterations(t *testing.T) {
	w := newWorkload(t, 7)
	if len(w.ks) < 3 {
		t.Fatalf("workload has only %d knowledge statements", len(w.ks))
	}
	opts := Options{Decompose: true, Solver: solver.Options{GradTol: 1e-8}}
	prev, err := SolveContext(context.Background(), w.system(t, w.ks[:len(w.ks)-1]), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Duals) == 0 {
		t.Fatal("decomposed solve exposed no duals")
	}

	cold, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.WarmStart = prev.Duals
	warm, err := SolveContext(context.Background(), w.system(t, w.ks), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Stats.Converged || !warm.Stats.Converged {
		t.Fatalf("convergence: cold=%v warm=%v", cold.Stats.Converged, warm.Stats.Converged)
	}
	if warm.Stats.Iterations >= cold.Stats.Iterations {
		t.Fatalf("warm iterations = %d, want < cold %d", warm.Stats.Iterations, cold.Stats.Iterations)
	}
	if d := maxAbsDiff(cold.X, warm.X); d > 1e-6 {
		t.Fatalf("warm posterior deviates by %g", d)
	}
}

// TestWarmStartStaleSeedSafe verifies a bad seed cannot change the
// answer: unknown labels are ignored and perturbed multipliers only cost
// iterations, never correctness.
func TestWarmStartStaleSeedSafe(t *testing.T) {
	w := newWorkload(t, 13)
	opts := Options{Solver: solver.Options{GradTol: 1e-8}}
	cold, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	seed := []ConstraintDual{{Label: "no such constraint", Lambda: 17}}
	for _, d := range cold.Duals {
		seed = append(seed, ConstraintDual{Label: d.Label, Kind: d.Kind, Lambda: d.Lambda + 2})
	}
	warmOpts := opts
	warmOpts.WarmStart = seed
	warm, err := SolveContext(context.Background(), w.system(t, w.ks), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Converged {
		t.Fatalf("warm solve did not converge: %+v", warm.Stats)
	}
	if d := maxAbsDiff(cold.X, warm.X); d > 1e-6 {
		t.Fatalf("posterior deviates by %g under stale seed", d)
	}
}

// TestWarmStartIgnoredByScaling verifies the scaling algorithms simply
// ignore the seed (they expose no duals in the same normalization).
func TestWarmStartIgnoredByScaling(t *testing.T) {
	_, _, _, sys := paperSystem(t)
	plain, err := SolveContext(context.Background(), sys, Options{Algorithm: GIS})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := SolveContext(context.Background(), sys, Options{Algorithm: GIS, WarmStart: []ConstraintDual{{Label: "junk", Lambda: 99}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(plain.X, seeded.X); d > 1e-12 {
		t.Fatalf("GIS result changed by %g under a warm-start seed", d)
	}
}

// TestDecomposedDualsDeterministic checks that component solves report
// their duals in deterministic component order, independent of worker
// interleaving.
func TestDecomposedDualsDeterministic(t *testing.T) {
	w := newWorkload(t, 21)
	opts := Options{Decompose: true, Workers: 4, Solver: solver.Options{GradTol: 1e-9}}
	first, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Duals) == 0 {
		t.Fatal("no duals from decomposed solve")
	}
	second, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Duals) != len(second.Duals) {
		t.Fatalf("dual counts differ: %d vs %d", len(first.Duals), len(second.Duals))
	}
	for i := range first.Duals {
		if first.Duals[i].Label != second.Duals[i].Label {
			t.Fatalf("dual order differs at %d: %q vs %q", i, first.Duals[i].Label, second.Duals[i].Label)
		}
	}
}

// pairedQIWorkload builds a table with one QI attribute and a manual
// partition putting each pair of QI values {2b, 2b+1} in bucket b. With
// two QI tuples per bucket the SA-count invariants no longer pin every
// variable, so each component reaches the iterative solver; knowledge on
// a single qid touches only its bucket, so every bucket is its own
// component.
func pairedQIWorkload(t *testing.T, buckets, perQID, saCard int) (*dataset.Table, *bucket.Bucketized) {
	t.Helper()
	qids := 2 * buckets
	qiDom := make([]string, qids)
	for v := range qiDom {
		qiDom[v] = fmt.Sprintf("q%d", v)
	}
	saDom := make([]string, saCard)
	for v := range saDom {
		saDom[v] = fmt.Sprintf("s%d", v)
	}
	tbl := dataset.NewTable(dataset.MustSchema(
		dataset.NewAttribute("Q", dataset.QuasiIdentifier, qiDom),
		dataset.NewAttribute("SA", dataset.Sensitive, saDom),
	))
	part := make([][]int, buckets)
	row := 0
	for q := 0; q < qids; q++ {
		for r := 0; r < perQID; r++ {
			if err := tbl.AppendCoded([]int{q, (q + r) % saCard}); err != nil {
				t.Fatal(err)
			}
			part[q/2] = append(part[q/2], row)
			row++
		}
	}
	d, err := bucket.FromPartition(tbl, part)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, d
}

// TestComponentFailureCancelsSiblings runs a ten-component parallel
// solve in which one component fails instantly (contradictory zero
// knowledge makes its presolve infeasible) while every other component
// is held in-flight by a caller-supplied Interrupt hook that sleeps on
// its first poll. The failure must (a) surface as the infeasibility
// error, never a sibling's ErrInterrupted, and (b) cancel the run before
// the held siblings release their worker slots, so every not-yet-started
// component is skipped — observed as at most Workers
// "maxent.solve.component" spans.
//
// The timing argument makes this deterministic rather than merely
// likely: with Workers=2 only two components can be in flight, a slot
// frees only when one of them finishes, the held sibling cannot finish
// before its 100ms sleep elapses, and the failing component finishes (by
// failing) in microseconds — so the first freed slot always comes after
// the cancellation.
func TestComponentFailureCancelsSiblings(t *testing.T) {
	const buckets = 10
	tbl, d := pairedQIWorkload(t, buckets, 6, 4)
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	// Feasible knowledge on one qid per bucket keeps all ten buckets
	// relevant as separate single-bucket components.
	for b := 0; b < buckets; b++ {
		qid := 2 * b
		for s := 0; s < d.SACardinality(); s++ {
			if p := truth.P(qid, s); p > 0 && p < 1 {
				if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, qid, s, p)); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	// Bucket 0's component is made infeasible: pinning every SA value of
	// qid 0 to zero contradicts its QI invariant, which presolve detects
	// before the solver ever runs (and before the Interrupt hook can
	// stall that component).
	for s := 0; s < d.SACardinality(); s++ {
		if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 0, s, 0)); err != nil {
			t.Fatal(err)
		}
	}

	sink := telemetry.NewTreeSink()
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(sink))
	opts := Options{Decompose: true, Workers: 2, Solver: solver.Options{
		GradTol: 1e-12,
		// Holds feasible components in-flight long enough for the failing
		// one to cancel the run. Only pre-cancellation polls reach this
		// hook: once cancelled, the chained interrupt short-circuits.
		Interrupt: func() bool { time.Sleep(100 * time.Millisecond); return false },
	}}
	_, err = SolveContext(ctx, sys, opts)
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible (sibling interruption must not mask the root cause)", err)
	}
	if errors.Is(err, solver.ErrInterrupted) {
		t.Fatalf("root-cause error was masked by ErrInterrupted: %v", err)
	}
	started := 0
	for _, ev := range sink.Events() {
		if ev.Name == "maxent.solve.component" {
			started++
		}
	}
	if started == 0 {
		t.Fatal("no component spans recorded; tracing broken")
	}
	if started > 2 {
		t.Fatalf("%d of %d components started despite early failure; cancellation did not skip pending components", started, buckets)
	}
}

// TestPooledScratchRace hammers the shared dualScratch pool from
// concurrent solves (each itself running parallel component workers).
// Under -race this fails loudly if pooled buffers are ever shared between
// two in-flight solves; the posterior cross-check catches silent reuse.
func TestPooledScratchRace(t *testing.T) {
	w := newWorkload(t, 5)
	opts := Options{Decompose: true, Workers: 2, Solver: solver.Options{GradTol: 1e-9}}
	ref, err := SolveContext(context.Background(), w.system(t, w.ks), opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const repeats = 3
	systems := make([][]*constraint.System, goroutines)
	for g := range systems {
		for r := 0; r < repeats; r++ {
			systems[g] = append(systems[g], w.system(t, w.ks))
		}
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, sys := range systems[g] {
				sol, err := SolveContext(context.Background(), sys, opts)
				if err != nil {
					errs[g] = err
					return
				}
				if !sol.Stats.Converged {
					errs[g] = fmt.Errorf("solve did not converge: %+v", sol.Stats)
					return
				}
				if d := maxAbsDiff(ref.X, sol.X); d > 1e-7 {
					errs[g] = fmt.Errorf("posterior deviates by %g under concurrency", d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestWarmSeedNeverChangesAnswer: a seed fitted to other knowledge can
// start the dual far above its minimum — multipliers of rules the target
// lacks put x(λ) near overflow, and the first line search stalls there.
// The seed guard and the zero-start retry must keep every warm solve on
// the cold answer: for every ordered pair of small Top-(k+,k−) sets on
// the Adult workload, the target seeded with the source's converged
// duals converges to its cold joint within 1e-8, and so does the target
// seeded with its own duals with one row pushed up by 100.
func TestWarmSeedNeverChangesAnswer(t *testing.T) {
	d, selected := solveWorkload(t)
	opts := Options{Decompose: true}
	var systems []*constraint.System
	var cold []*Solution
	for kp := 0; kp <= 2; kp++ {
		for kn := 0; kn <= 2; kn++ {
			if kp+kn == 0 {
				continue
			}
			sys := workloadSystem(t, d, assoc.TopK(selected, kp, kn))
			sol, err := SolveContext(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("Top-(%d,%d) does not converge cold: %s", kp, kn, sol.Stats)
			}
			systems = append(systems, sys)
			cold = append(cold, sol)
		}
	}
	check := func(name string, target int, seed []ConstraintDual) {
		t.Helper()
		warmOpts := opts
		warmOpts.WarmStart = seed
		sol, err := SolveContext(context.Background(), systems[target], warmOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Stats.Converged {
			t.Fatalf("%s: warm solve did not converge: %s", name, sol.Stats)
		}
		if diff := maxAbsDiff(sol.X, cold[target].X); diff > 1e-8 {
			t.Fatalf("%s: warm joint differs from cold by %g", name, diff)
		}
	}
	for target := range systems {
		for source := range systems {
			check(fmt.Sprintf("set %d seeded from set %d", target, source), target, cold[source].Duals)
		}
		pushed := append([]ConstraintDual(nil), cold[target].Duals...)
		pushed[len(pushed)-1].Lambda += 100
		check(fmt.Sprintf("set %d seeded with a pushed row", target), target, pushed)
	}
}

// TestWarmRetryOnlyBeforeCap pins the retry rule of Options.WarmStart.
// A warm solve that stalls before the iteration cap — forced here by a
// gradient tolerance no float64 solve meets, so the line search stalls
// — is solved once more from zero: its joint is the zero start's bit for
// bit, and both attempts are charged to the iterations, evaluations and
// trajectory. A warm solve that reaches the cap is returned as it is.
func TestWarmRetryOnlyBeforeCap(t *testing.T) {
	w := newWorkload(t, 7)
	sys := w.system(t, w.ks)
	ref, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unreachable := solver.Options{GradTol: 1e-300}
	cold, err := SolveContext(context.Background(), sys, Options{CaptureTrace: true, Solver: unreachable})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Converged || cold.Stats.Iterations >= unreachable.IterationCap() {
		t.Fatalf("zero start should stall before the cap: %s", cold.Stats)
	}
	warm, err := SolveContext(context.Background(), sys, Options{CaptureTrace: true, Solver: unreachable, WarmStart: ref.Duals})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.X {
		if warm.X[i] != cold.X[i] {
			t.Fatalf("term %d: retried warm solve %v, zero start %v", i, warm.X[i], cold.X[i])
		}
	}
	if warm.Stats.Iterations < cold.Stats.Iterations || warm.Stats.Evaluations <= cold.Stats.Evaluations {
		t.Fatalf("warm attempt not charged: warm %s, zero start %s", warm.Stats, cold.Stats)
	}
	if len(warm.Trajectory) != warm.Stats.Iterations {
		t.Fatalf("trajectory has %d points for %d iterations", len(warm.Trajectory), warm.Stats.Iterations)
	}

	// Halfway between zero and the optimum, the seed passes the guard by
	// convexity but cannot converge in 3 iterations.
	half := append([]ConstraintDual(nil), ref.Duals...)
	for i := range half {
		half[i].Lambda /= 2
	}
	capped, err := SolveContext(context.Background(), sys, Options{WarmStart: half, Solver: solver.Options{MaxIterations: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Stats.Converged || capped.Stats.Iterations != 3 {
		t.Fatalf("capped warm solve: %s, want 3 unconverged iterations and no retry", capped.Stats)
	}
}

package maxent

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
)

func TestStatsString(t *testing.T) {
	s := Stats{Iterations: 42, Evaluations: 85, Duration: 1234 * time.Microsecond, Converged: true,
		MaxViolation: 2.1e-10}
	got := s.String()
	for _, want := range []string{"42 iterations", "85 evaluations", "1.234ms", "converged=true", "max violation 2.10e-10"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Stats.String() = %q, missing %q", got, want)
		}
	}
	if strings.Contains(got, "workers") {
		t.Fatalf("Stats.String() = %q, workers should be omitted for sequential solves", got)
	}
	par := Stats{Iterations: 1, Workers: 4}
	if got := par.String(); !strings.Contains(got, "4 workers") {
		t.Fatalf("Stats.String() = %q, missing worker count", got)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Iterations: 10, Evaluations: 20, Duration: 5 * time.Millisecond, Converged: true,
		MaxViolation: 1e-9, ActiveVariables: 30, FixedVariables: 5, Components: 1, Workers: 2}
	b := Stats{Iterations: 7, Evaluations: 9, Duration: 8 * time.Millisecond, Converged: false,
		MaxViolation: 1e-6, ActiveVariables: 12, FixedVariables: 3, Components: 1, Workers: 4}
	a.Merge(b)
	if a.Iterations != 17 || a.Evaluations != 29 || a.ActiveVariables != 42 || a.FixedVariables != 8 || a.Components != 2 {
		t.Fatalf("additive fields wrong after merge: %+v", a)
	}
	if a.Converged {
		t.Fatal("convergence must AND")
	}
	if a.Duration != 8*time.Millisecond {
		t.Fatalf("duration should take the max (overlapping components), got %v", a.Duration)
	}
	if a.MaxViolation != 1e-6 || a.Workers != 4 {
		t.Fatalf("max fields wrong: %+v", a)
	}
}

// TestWorkersDefault: the zero value of Options.Workers means
// runtime.GOMAXPROCS(0); negative values solve sequentially.
func TestWorkersDefault(t *testing.T) {
	if got, want := (Options{}).WorkerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("zero Workers resolved to %d, want GOMAXPROCS = %d", got, want)
	}
	if got := (Options{Workers: -3}).WorkerCount(); got != 1 {
		t.Fatalf("negative Workers resolved to %d, want 1", got)
	}
	if got := (Options{Workers: 6}).WorkerCount(); got != 6 {
		t.Fatalf("explicit Workers resolved to %d, want 6", got)
	}
}

// solveWorkload builds a real Adult-style decomposable problem: data
// invariants plus Top-K mined knowledge.
func solveWorkload(t testing.TB) (*bucket.Bucketized, []assoc.Rule) {
	t.Helper()
	d, rules := workloadRules(t)
	return d, assoc.TopK(rules, 20, 20)
}

// workloadRules is solveWorkload's bucketization with every mined rule.
func workloadRules(t testing.TB) (*bucket.Bucketized, []assoc.Rule) {
	t.Helper()
	tbl := adult.Generate(adult.Config{Records: 600, Seed: 1})
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 5, ExemptMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := assoc.Mine(tbl, assoc.Options{MinSupport: 3, Sizes: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return d, rules
}

func workloadSystem(t testing.TB, d *bucket.Bucketized, selected []assoc.Rule) *constraint.System {
	t.Helper()
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	for i := range selected {
		kn := selected[i].Knowledge()
		c, err := kn.Constraint(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestSolveRecordsWorkers: a decomposed parallel solve records the chosen
// worker count and component count in Stats.
func TestSolveRecordsWorkers(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, selected)
	sol, err := SolveContext(context.Background(), sys, Options{Decompose: true}) // Workers zero → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Components < 1 {
		t.Fatalf("expected components, got %+v", sol.Stats)
	}
	if sol.Stats.Workers < 1 {
		t.Fatalf("Workers not recorded: %+v", sol.Stats)
	}
	want := runtime.GOMAXPROCS(0)
	if want > sol.Stats.Components {
		want = sol.Stats.Components
	}
	if sol.Stats.Workers != want {
		t.Fatalf("Workers = %d, want %d (GOMAXPROCS capped by %d components)",
			sol.Stats.Workers, want, sol.Stats.Components)
	}
	// Sequential path records 1.
	seq, err := SolveContext(context.Background(), sys, Options{Decompose: true, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Workers != 1 {
		t.Fatalf("sequential Workers = %d, want 1", seq.Stats.Workers)
	}
}

// TestParallelSolveTelemetryRace hammers one shared registry and tracer
// from several concurrent decomposed solves, each of which fans out to
// parallel component workers — run under -race this is the telemetry
// concurrency contract. It then checks the emitted spans cover every
// pipeline stage of the solve and the metrics add up.
func TestParallelSolveTelemetryRace(t *testing.T) {
	d, selected := solveWorkload(t)
	reg := telemetry.NewRegistry()
	sink := telemetry.NewTreeSink()
	ctx := telemetry.WithMetrics(context.Background(), reg)
	ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(sink))

	const solves = 4
	var wg sync.WaitGroup
	errs := make([]error, solves)
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sys := workloadSystem(t, d, selected)
			opts := Options{Decompose: true, Workers: 4}
			opts.Solver.MaxIterations = 3000
			opts.Solver.GradTol = 1e-6
			sol, err := SolveContext(ctx, sys, opts)
			if err == nil && !sol.Stats.Converged {
				t.Errorf("solve %d did not converge", i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := reg.Counter("pmaxent_solve_total").Value(); got != solves {
		t.Fatalf("pmaxent_solve_total = %d, want %d", got, solves)
	}
	if reg.Counter("pmaxent_dual_iterations_total").Value() == 0 {
		t.Fatal("iteration recorder did not fire")
	}
	if reg.Histogram("pmaxent_component_active_variables", nil).Count() == 0 {
		t.Fatal("no per-component size observations")
	}
	if reg.Counter("pmaxent_decompose_buckets_total").Value() == 0 ||
		reg.Counter("pmaxent_decompose_buckets_closed_form_total").Value() == 0 {
		t.Fatal("decomposition hit-rate counters empty")
	}

	byName := map[string]int{}
	var solveID uint64
	for _, ev := range sink.Events() {
		byName[ev.Name]++
		if ev.Name == "maxent.solve" {
			solveID = ev.ID
		}
	}
	if byName["maxent.solve"] != solves {
		t.Fatalf("maxent.solve spans = %d, want %d", byName["maxent.solve"], solves)
	}
	for _, name := range []string{"maxent.decompose", "maxent.solve.component", "maxent.presolve"} {
		if byName[name] == 0 {
			t.Fatalf("no %q spans (got %v)", name, byName)
		}
	}
	if solveID == 0 {
		t.Fatal("no solve span ID")
	}
}

// TestSolverTraceStillFires: the telemetry recorder chains in front of a
// user-supplied solver trace callback instead of replacing it.
func TestSolverTraceStillFires(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, selected)
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithMetrics(context.Background(), reg)
	var calls int
	opts := Options{Decompose: true, Workers: -1}
	opts.Solver.Trace = func(solver.TraceEvent) { calls++ }
	if _, err := SolveContext(ctx, sys, opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("user trace callback was not invoked")
	}
	if got := reg.Counter("pmaxent_dual_iterations_total").Value(); got == 0 {
		t.Fatal("telemetry iteration counter empty")
	}
}

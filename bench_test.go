package privacymaxent

// Benchmarks regenerating every figure in the paper's evaluation
// (Sec. 7), plus micro-benchmarks for the pipeline stages and the two
// ablations DESIGN.md calls out. Figure benches run a full scaled-down
// sweep per iteration; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison. cmd/
// experiments prints the same series at configurable (full paper) sizes.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/experiments"
	"privacymaxent/internal/individuals"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/server"
)

// deltaEnv reads PMAXENT_DELTA: "1" routes BenchmarkDeltaResolve through
// maxent.SolveDeltaContext against the pre-solved baseline, so scripts/benchab
// can A/B a 1-rule incremental re-solve against the cold solve of the
// same system.
var deltaEnv = os.Getenv("PMAXENT_DELTA") == "1"

// benchConfig is the scaled-down workload shared by the figure benches:
// 2000 records → 400 buckets of five at 5-diversity (paper: 14,210 →
// 2,842).
var benchConfig = experiments.Config{Records: 2000, Seed: 1, MaxRuleSize: 2}

// benchInstance caches the generated workload across benchmarks; data
// generation and rule mining are benchmarked separately.
var benchInstance *experiments.Instance

func getInstance(b *testing.B) *experiments.Instance {
	b.Helper()
	if benchInstance == nil {
		in, err := experiments.NewInstance(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		benchInstance = in
	}
	return benchInstance
}

// BenchmarkFigure5 regenerates Figure 5: estimation accuracy vs K for
// the K−, K+ and (K+, K−) curves.
func BenchmarkFigure5(b *testing.B) {
	in := getInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (restricted to T = 1..3 so a
// single iteration stays in benchmark territory; cmd/experiments runs
// the full T = 1..8 panels).
func BenchmarkFigure6(b *testing.B) {
	in := getInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(in, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7a regenerates Figure 7(a): solver cost vs number of
// background-knowledge constraints.
func BenchmarkFigure7a(b *testing.B) {
	in := getInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7a(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7b regenerates Figure 7(b): running time vs number of
// buckets for several knowledge budgets (7(c), the iteration counterpart,
// comes from the same sweep and is benchmarked by BenchmarkFigure7c).
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure7bc(benchConfig, []int{50, 100, 200}, []int{0, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7c regenerates Figure 7(c): iterations vs number of
// buckets. The sweep is shared with 7(b); benchmarked separately so the
// two figure IDs both have a regenerator.
func BenchmarkFigure7c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure7bc(benchConfig, []int{50, 100, 200}, []int{0, 100, 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithmComparison is the Malouf-style solver ablation
// (Sec. 3.3): LBFGS vs GIS vs steepest descent vs Newton.
func BenchmarkAlgorithmComparison(b *testing.B) {
	in := getInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareAlgorithms(in, 50, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompositionAblation measures the Sec. 5.5 irrelevant-bucket
// optimization on/off.
func BenchmarkDecompositionAblation(b *testing.B) {
	in := getInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareDecomposition(in, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline stage micro-benchmarks ---

// BenchmarkGenerateAdult measures the synthetic data substrate.
func BenchmarkGenerateAdult(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adult.Generate(adult.Config{Records: 2000, Seed: int64(i + 1)})
	}
}

// BenchmarkAnatomize measures 5-diversity bucketization.
func BenchmarkAnatomize(b *testing.B) {
	tbl := adult.Generate(adult.Config{Records: 2000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Anatomize(tbl, BucketOptions{L: 5, ExemptMostFrequent: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMine measures association-rule mining as the paper's
// experiments run it (subset sizes 1–2, minimum support 3) on 1,000- and
// 2,000-record Adult tables, on one goroutine and at GOMAXPROCS workers.
// The rules are identical at every worker count.
func BenchmarkMine(b *testing.B) {
	for _, records := range []int{1000, 2000} {
		tbl := adult.Generate(adult.Config{Records: records, Seed: 1})
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("records=%d/workers=%d", records, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := MineRulesContext(context.Background(), tbl, MineOptions{MinSupport: 3, Sizes: []int{1, 2}, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveNoKnowledge measures the full MaxEnt solve with data
// invariants only (Theorem 5 territory: presolve + closed form dominate).
func BenchmarkSolveNoKnowledge(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		if _, err := maxent.SolveContext(context.Background(), sys, maxent.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWithKnowledge measures the dual solve with a Top-100
// mixed knowledge bound, decomposition on.
func BenchmarkSolveWithKnowledge(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	selected := TopK(in.Rules, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		for j := range selected {
			kn := selected[j].Knowledge()
			c, err := kn.Constraint(sp)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := maxent.SolveContext(context.Background(), sys, maxent.Options{Decompose: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmStarted measures the per-grid-point cost of a warmed
// sweep: the same Top-100 solve as BenchmarkSolveWithKnowledge, but the
// invariant base is built once (cloned per iteration) and the solve is
// seeded with the duals of a previous converged solve.
func BenchmarkSolveWarmStarted(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	selected := TopK(in.Rules, 50, 50)
	base := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	for j := range selected {
		kn := selected[j].Knowledge()
		c, err := kn.Constraint(sp)
		if err != nil {
			b.Fatal(err)
		}
		if err := base.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	seed, err := maxent.SolveContext(context.Background(), base, maxent.Options{Decompose: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := base.Clone()
		if _, err := maxent.SolveContext(context.Background(), sys, maxent.Options{Decompose: true, WarmStart: seed.Duals}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaResolve measures a 1-rule re-publication: the invariant
// base plus Top-(25,25) knowledge minus its top rule is solved once
// outside the timer (the state a serving cache would hold), then each
// iteration assembles the full system and re-solves it. With
// PMAXENT_DELTA=1 the re-solve goes through maxent.SolveDeltaContext — clean
// components reuse the baseline posterior verbatim, only the component
// the added rule touches is re-solved — and without it the whole system
// solves cold, so the A/B isolates exactly what an incremental
// re-publication saves. Top-(25,25) rather than the Top-(50,50) of
// BenchmarkSolveWithKnowledge: the smaller bound keeps the conditioned
// system in several connected components (the larger bound couples
// everything into one, leaving a delta nothing to reuse) and lets the
// baseline converge, which the delta path requires.
func BenchmarkDeltaResolve(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	selected := TopK(in.Rules, 25, 25)
	base := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	for j := 1; j < len(selected); j++ {
		kn := selected[j].Knowledge()
		c, err := kn.Constraint(sp)
		if err != nil {
			b.Fatal(err)
		}
		if err := base.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	opts := maxent.Options{Decompose: true}
	// The baseline needs ~600 LBFGS iterations; the default cap would
	// leave it unconverged and unusable as a delta ancestor.
	opts.Solver.MaxIterations = 5000
	baseline, err := maxent.SolveContext(context.Background(), base, opts)
	if err != nil {
		b.Fatal(err)
	}
	if !baseline.Stats.Converged {
		b.Fatalf("baseline did not converge: %s", baseline.Stats.String())
	}
	kn := selected[0].Knowledge()
	added, err := kn.Constraint(sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := base.Clone()
		if err := sys.Add(added); err != nil {
			b.Fatal(err)
		}
		if deltaEnv {
			sol, err := maxent.SolveDeltaContext(context.Background(), sys, &maxent.Baseline{Sys: base, Sol: baseline}, opts)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Stats.ReusedComponents == 0 {
				b.Fatal("delta solve reused no components — it fell back to a cold solve")
			}
		} else {
			if _, err := maxent.SolveContext(context.Background(), sys, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPosterior measures folding the joint into P(S|Q).
func BenchmarkPosterior(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	sol, err := maxent.SolveContext(context.Background(), sys, maxent.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.Posterior()
	}
}

// BenchmarkEstimationAccuracy measures the Sec. 7.1 metric.
func BenchmarkEstimationAccuracy(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	sol, err := maxent.SolveContext(context.Background(), sys, maxent.Options{})
	if err != nil {
		b.Fatal(err)
	}
	post := sol.Posterior()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimationAccuracy(in.Truth, post); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveParallelComponents measures the component-parallel solve
// against BenchmarkSolveWithKnowledge's sequential baseline.
func BenchmarkSolveParallelComponents(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	selected := TopK(in.Rules, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		for j := range selected {
			kn := selected[j].Knowledge()
			c, err := kn.Constraint(sp)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := maxent.SolveContext(context.Background(), sys, maxent.Options{Decompose: true, Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndividualsSolve measures the Sec. 6 pseudonym model on the
// bench workload's first knowledge statement.
func BenchmarkIndividualsSolve(b *testing.B) {
	in := getInstance(b)
	sp := individuals.NewSpace(in.Data)
	k := individuals.ValueProbability{Person: individuals.Person{QID: 0}, SAs: []int{0}, P: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := individuals.Solve(context.Background(), sp, []individuals.Knowledge{k}, maxent.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInequalitySolve measures the Sec. 4.5 box-constrained dual on
// a Top-20 vague bound.
func BenchmarkInequalitySolve(b *testing.B) {
	in := getInstance(b)
	sp := constraint.NewSpace(in.Data)
	selected := TopK(in.Rules, 10, 10)
	var ineqs []maxent.Inequality
	for i := range selected {
		kn := selected[i].Knowledge()
		iq, err := maxent.VagueKnowledge(sp, kn, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		ineqs = append(ineqs, iq)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		if _, err := maxent.SolveWithInequalitiesContext(context.Background(), sys, ineqs, maxent.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerQuantify measures a full POST /v1/quantify round-trip
// through the pmaxentd server on the bench workload with a Top-(10,10)
// knowledge bound. By default the server is shared across iterations, so
// after the first request the prepared-invariant cache and warm-start
// duals are hot — the steady state of a service quantifying one
// publication repeatedly. Set PMAXENT_SERVER_COLD=1 (scripts/benchab's
// -seed-env knob) to build a fresh server every iteration instead and
// measure the cold path for an A/B of the cache's worth.
func BenchmarkServerQuantify(b *testing.B) {
	in := getInstance(b)
	var pub bytes.Buffer
	if err := WritePublishedJSON(&pub, in.Data); err != nil {
		b.Fatal(err)
	}
	selected := TopK(in.Rules, 10, 10)
	knowledge := make([]DistributionKnowledge, len(selected))
	for i := range selected {
		knowledge[i] = selected[i].Knowledge()
	}
	var kjson bytes.Buffer
	if err := WriteKnowledgeJSON(&kjson, in.Data.Schema(), knowledge); err != nil {
		b.Fatal(err)
	}
	body := fmt.Sprintf(`{"published": %s, "knowledge": %s}`, pub.String(), kjson.String())

	cold := os.Getenv("PMAXENT_SERVER_COLD") == "1"
	cfg := server.Config{}
	srv := server.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			srv = server.New(cfg)
		}
		req := httptest.NewRequest("POST", "/v1/quantify", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

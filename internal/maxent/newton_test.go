package maxent

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/linalg"
	"privacymaxent/internal/solver"
)

// denseNewton builds H = A·diag(x(λ))·Aᵀ and g = ∇g(λ) densely, the
// reference the structured step is checked against.
func denseNewton(obj *dualObjective, lambda []float64) (h [][]float64, g []float64) {
	m, n := obj.a.Rows(), obj.a.Cols()
	g = make([]float64, m)
	obj.Eval(lambda, g)
	x := make([]float64, n)
	obj.Primal(lambda, x)
	h = make([][]float64, m)
	for i := range h {
		h[i] = make([]float64, m)
	}
	for j := 0; j < n; j++ {
		rows, vals := obj.cols.Col(j)
		for a, ra := range rows {
			for b, rb := range rows {
				h[ra][rb] += x[j] * vals[a] * vals[b]
			}
		}
	}
	return h, g
}

// gaussSolve solves h·y = b by Gaussian elimination with partial
// pivoting on copies of its inputs.
func gaussSolve(h [][]float64, b []float64) []float64 {
	n := len(b)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append(append([]float64(nil), h[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	y := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := a[i][n]
		for c := i + 1; c < n; c++ {
			s -= a[i][c] * y[c]
		}
		y[i] = s / a[i][i]
	}
	return y
}

func normInf(v []float64) float64 { return linalg.NormInf(v) }

// checkNewtonStep solves the Newton system at a random λ with the
// structured step and checks the residual of H·d = −g, and, when exact
// is set (no dependent rows, so H is nonsingular), d against a dense
// solve, both within 1e-10 relative.
func checkNewtonStep(t *testing.T, name string, sys *constraint.System, rng *rand.Rand, exact bool) {
	t.Helper()
	a, rhs := sys.Matrix()
	obj := newDualObjective(a, rhs)
	defer obj.release()
	rows := systemRows(sys)
	step := newNewtonStep(obj, rows)
	if step.k == 0 || len(step.blockPtr) < 3 {
		t.Fatalf("%s: %d coupling rows, %d blocks; the check needs both", name, step.k, len(step.blockPtr)-1)
	}
	obj.step = step
	lambda := make([]float64, a.Rows())
	for i := range lambda {
		lambda[i] = 0.3 * rng.NormFloat64()
	}
	h, g := denseNewton(obj, lambda)
	d := make([]float64, len(g))
	if !obj.NewtonStep(lambda, g, d) {
		t.Fatalf("%s: step solve failed", name)
	}
	res := make([]float64, len(g))
	for i := range h {
		res[i] = linalg.Dot(h[i], d) + g[i]
	}
	if r := normInf(res); r > 1e-10*normInf(g) {
		t.Fatalf("%s: |H·d + g| = %g, |g| = %g", name, r, normInf(g))
	}
	if !exact {
		// Keeping every invariant leaves each bucket block singular: the
		// step must have dropped a dependent row somewhere.
		dropped := 0
		for b := 0; b+1 < len(step.blockPtr); b++ {
			blockRows, _, f := step.block(b)
			for l := range blockRows {
				if f[linalg.PackedRow(l)+l] == 0 {
					dropped++
				}
			}
		}
		if dropped == 0 {
			t.Fatalf("%s: no bucket block dropped a dependent row", name)
		}
		return
	}
	neg := make([]float64, len(g))
	for i, v := range g {
		neg[i] = -v
	}
	want := gaussSolve(h, neg)
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-10*normInf(want) {
			t.Fatalf("%s: d[%d] = %g, dense solve %g", name, i, d[i], want[i])
		}
	}
}

// TestNewtonStepSolvesHessianSystem: on the paper system and on random
// feasible systems with bucket blocks, the structured step's direction
// solves A·diag(x)·Aᵀ·d = −g as a dense solve does. Systems that keep
// every invariant row have one dependent row per bucket, so their bucket
// blocks are singular and the step drops a row of each.
func TestNewtonStepSolvesHessianSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl, d, _, sys := paperSystem(t)
	for _, k := range []constraint.DistributionKnowledge{
		knowledgeFor(tbl, d, 0, 1, 0.4),
		knowledgeFor(tbl, d, 2, 0, 0.3),
		knowledgeFor(tbl, d, 1, 1, 0.5),
	} {
		if err := constraint.AddKnowledge(sys, k); err != nil {
			t.Fatal(err)
		}
	}
	checkNewtonStep(t, "paper", sys, rng, true)

	for trial := 0; trial < 8; trial++ {
		tbl := randomTestTable(rng, 40+rng.Intn(40), 2, 3, 5)
		d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 3, ExemptMostFrequent: true})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := dataset.TrueConditional(tbl, d.Universe())
		if err != nil {
			t.Fatal(err)
		}
		drop := trial%2 == 0
		sys := constraint.DataInvariants(constraint.NewSpace(d), constraint.InvariantOptions{DropRedundant: drop})
		for i := 0; i < 6; i++ {
			qid := rng.Intn(d.Universe().Len())
			sa := rng.Intn(d.SACardinality())
			if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, qid, sa, truth.P(qid, sa))); err != nil {
				t.Fatal(err)
			}
		}
		checkNewtonStep(t, fmt.Sprintf("trial %d (drop redundant %v)", trial, drop), sys, rng, drop)
	}
}

// syntheticComponent builds a dual with the given number of 2×2 buckets
// (QI rows q1, q2 and SA row s1 each) and k coupling rows, each tying a
// term of one bucket to a term of the next. With chain set, every
// invariant row also shares a variable with the next bucket's first row,
// so all buckets fall into one block.
func syntheticComponent(buckets, k int, chain bool) (*dualObjective, []rowData) {
	var rows []rowData
	n := 4 * buckets
	for b := 0; b < buckets; b++ {
		v := 4 * b // terms (q1,s1), (q1,s2), (q2,s1), (q2,s2)
		rows = append(rows,
			rowData{terms: []int{v, v + 1}, coeffs: []float64{1, 1}, kind: constraint.QIInvariant},
			rowData{terms: []int{v + 2, v + 3}, coeffs: []float64{1, 1}, kind: constraint.QIInvariant},
			rowData{terms: []int{v, v + 2}, coeffs: []float64{1, 1}, kind: constraint.SAInvariant})
		if chain && b+1 < buckets {
			last := &rows[len(rows)-1]
			last.terms = append(last.terms, v+4)
			last.coeffs = append(last.coeffs, 1)
		}
	}
	for i := 0; i < k; i++ {
		j := (4*i + i/buckets) % n
		rows = append(rows, rowData{terms: []int{j, (j + 5) % n}, coeffs: []float64{0.5, -0.5}, kind: constraint.Knowledge})
	}
	a := linalg.NewCSR(n)
	rhs := make([]float64, len(rows))
	for _, r := range rows {
		if err := a.AppendRow(r.terms, r.coeffs); err != nil {
			panic(err)
		}
	}
	return newDualObjective(a, rhs), rows
}

// TestComponentMethodBounds: Auto hands a component to Newton exactly
// when it has 32 to K* coupling rows and no invariant block wider than
// K*; explicit algorithms are never overridden.
func TestComponentMethodBounds(t *testing.T) {
	cases := []struct {
		alg     Algorithm
		k       int
		chain   bool
		buckets int
		want    Algorithm
	}{
		{Auto, newtonMinRows - 1, false, 40, LBFGS},
		{Auto, newtonMinRows, false, 40, Newton},
		{Auto, newtonMaxRows, false, 40, Newton},
		{Auto, newtonMaxRows + 1, false, 40, LBFGS},
		{Auto, newtonMinRows, true, newtonMaxRows/3 + 1, LBFGS}, // one block of 3·171 = 513 rows
		{Auto, newtonMinRows, true, newtonMaxRows / 3, Newton},  // 510 rows
		{LBFGS, newtonMinRows, false, 40, LBFGS},
		{Newton, 3, false, 40, Newton},
		{SteepestDescent, newtonMinRows, false, 40, SteepestDescent},
	}
	for _, c := range cases {
		obj, rows := syntheticComponent(c.buckets, c.k, c.chain)
		got, step := componentMethod(c.alg, obj, rows)
		obj.release()
		if got != c.want || (step != nil) != (got == Newton) {
			t.Errorf("%v with k=%d, %d buckets (chained %v): %v (step %v), want %v", c.alg, c.k, c.buckets, c.chain, got, step != nil, c.want)
		}
		if step != nil && step.k != c.k {
			t.Errorf("%v with k=%d: the step counts %d coupling rows", c.alg, c.k, step.k)
		}
	}
}

// newtonWorkload is the 600-record Adult workload with Top-(40, 0)
// knowledge: its 40 positive rules couple every touched bucket into one
// component, so Auto runs Newton on it.
func newtonWorkload(t testing.TB) *constraint.System {
	t.Helper()
	d, rules := workloadRules(t)
	return workloadSystem(t, d, assoc.TopK(rules, 40, 0))
}

// solveWith solves sys under Decompose with the given algorithm and
// solver options.
func solveWith(t *testing.T, sys *constraint.System, alg Algorithm, so solver.Options, workers int) *Solution {
	t.Helper()
	sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Decompose: true, Solver: so, Workers: workers, CaptureTrace: true})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return sol
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// lbfgsReference is the LBFGS solve Newton's joints are compared with.
// At a 1e-9 gradient tolerance LBFGS's line search stalls in roundoff on
// the workloads here, a few 1e-9 from the optimum, so the reference is
// held to its feasibility instead of its convergence flag.
func lbfgsReference(t *testing.T, sys *constraint.System) *Solution {
	t.Helper()
	sol := solveWith(t, sys, LBFGS, solver.Options{MaxIterations: 20000, GradTol: 1e-9}, -1)
	if sol.Stats.MaxViolation > 1e-8 {
		t.Fatalf("lbfgs reference: %s", sol.Stats)
	}
	return sol
}

// TestAutoRunsNewtonOnWideComponents: on a component with 40 coupling
// rows Auto is Newton bit for bit and converges in far fewer iterations
// than LBFGS, to the same joint.
func TestAutoRunsNewtonOnWideComponents(t *testing.T) {
	sys := newtonWorkload(t)
	so := solver.Options{MaxIterations: 5000, GradTol: 1e-9}
	auto := solveWith(t, sys, Auto, so, -1)
	newton := solveWith(t, sys, Newton, so, -1)
	lbfgs := lbfgsReference(t, sys)
	if !auto.Stats.Converged {
		t.Fatalf("auto: %s", auto.Stats)
	}
	if !sameBits(auto.X, newton.X) || auto.Stats.Iterations != newton.Stats.Iterations || auto.Stats.Evaluations != newton.Stats.Evaluations {
		t.Fatalf("auto (%s) is not the Newton solve (%s)", auto.Stats, newton.Stats)
	}
	if 4*auto.Stats.Iterations > lbfgs.Stats.Iterations {
		t.Fatalf("auto took %d iterations, lbfgs %d", auto.Stats.Iterations, lbfgs.Stats.Iterations)
	}
	for i := range auto.X {
		if math.Abs(auto.X[i]-lbfgs.X[i]) > 1e-8 {
			t.Fatalf("x[%d]: auto %g, lbfgs %g", i, auto.X[i], lbfgs.X[i])
		}
	}
}

// TestAutoNewtonStallFallsBackToLBFGS: a Newton run forced to stall
// before the cap (a gradient tolerance no float iterate reaches) is
// solved once more by LBFGS from zero; the result is that LBFGS run's,
// with both runs' iterations and evaluations charged and both kept in the
// trajectory.
func TestAutoNewtonStallFallsBackToLBFGS(t *testing.T) {
	sys := newtonWorkload(t)
	so := solver.Options{MaxIterations: 5000, GradTol: 1e-300}
	auto := solveWith(t, sys, Auto, so, -1)
	newton := solveWith(t, sys, Newton, so, -1)
	lbfgs := solveWith(t, sys, LBFGS, so, -1)
	if newton.Stats.Converged || newton.Stats.Iterations >= so.MaxIterations {
		t.Fatalf("newton did not stall before the cap: %s", newton.Stats)
	}
	if auto.Stats.Iterations != newton.Stats.Iterations+lbfgs.Stats.Iterations ||
		auto.Stats.Evaluations != newton.Stats.Evaluations+lbfgs.Stats.Evaluations {
		t.Fatalf("auto charged %d iterations/%d evaluations, want newton %d/%d + lbfgs %d/%d",
			auto.Stats.Iterations, auto.Stats.Evaluations, newton.Stats.Iterations, newton.Stats.Evaluations,
			lbfgs.Stats.Iterations, lbfgs.Stats.Evaluations)
	}
	if len(auto.Trajectory) != auto.Stats.Iterations {
		t.Fatalf("trajectory has %d points for %d iterations", len(auto.Trajectory), auto.Stats.Iterations)
	}
	if !sameBits(auto.X, lbfgs.X) {
		t.Fatal("auto's joint is not the LBFGS retry's")
	}
}

// TestNewtonRidgeOnDuplicateRows: every knowledge row twice makes the
// Schur complement singular, so the step takes the ridge path; Auto's
// Newton still converges, to LBFGS's joint within 1e-8 and to its own
// joint without the duplicates within 1e-12.
func TestNewtonRidgeOnDuplicateRows(t *testing.T) {
	sys := newtonWorkload(t)
	dup := sys.Clone()
	for i := 0; i < sys.Len(); i++ {
		if c := sys.At(i); c.Kind == constraint.Knowledge {
			dup.MustAdd(*c)
		}
	}

	// The Schur complement of the duplicated system, formed at λ = 0,
	// does not factor without a ridge.
	a, rhs := dup.Matrix()
	obj := newDualObjective(a, rhs)
	defer obj.release()
	step := newNewtonStep(obj, systemRows(dup))
	step.alloc()
	lambda := make([]float64, a.Rows())
	g := make([]float64, a.Rows())
	obj.Eval(lambda, g)
	obj.Primal(lambda, obj.scratch.x)
	step.factorBlocks(obj.scratch.x)
	step.formSchur(obj.scratch.x, g)
	if _, err := linalg.SolveSPD(step.schur, step.rhs, pivotTol); err == nil {
		t.Fatal("the duplicated system's Schur complement factored without a ridge")
	}

	so := solver.Options{MaxIterations: 5000, GradTol: 1e-9}
	auto := solveWith(t, dup, Auto, so, -1)
	newton := solveWith(t, dup, Newton, so, -1)
	lbfgs := lbfgsReference(t, dup)
	if !auto.Stats.Converged {
		t.Fatalf("auto: %s", auto.Stats)
	}
	if !sameBits(auto.X, newton.X) || auto.Stats.Iterations != newton.Stats.Iterations {
		t.Fatalf("auto (%s) is not the Newton solve (%s): it fell back", auto.Stats, newton.Stats)
	}
	single := solveWith(t, sys, Auto, so, -1)
	for i := range auto.X {
		if math.Abs(auto.X[i]-lbfgs.X[i]) > 1e-8 || math.Abs(auto.X[i]-single.X[i]) > 1e-12 {
			t.Fatalf("x[%d]: auto %g, lbfgs %g, without duplicates %g", i, auto.X[i], lbfgs.X[i], single.X[i])
		}
	}
}

// TestNewtonWorkersBitIdentical: Auto's Newton component gives the same
// joint, iterations and evaluations at every worker count.
func TestNewtonWorkersBitIdentical(t *testing.T) {
	sys := newtonWorkload(t)
	so := solver.Options{MaxIterations: 5000, GradTol: 1e-9}
	want := solveWith(t, sys, Auto, so, kernelWorkerGrid[0])
	for _, w := range kernelWorkerGrid[1:] {
		got := solveWith(t, sys, Auto, so, w)
		if !sameBits(got.X, want.X) || got.Stats.Iterations != want.Stats.Iterations || got.Stats.Evaluations != want.Stats.Evaluations {
			t.Fatalf("workers %d: %s, serial %s", w, got.Stats, want.Stats)
		}
	}
}

// TestAutoServeShapeMatchesLBFGS: a served-size Top-(4,4) solve never
// reaches 32 coupling rows, so Auto is LBFGS bit for bit — joint, duals,
// iterations and evaluations.
func TestAutoServeShapeMatchesLBFGS(t *testing.T) {
	d, rules := workloadRules(t)
	sys := workloadSystem(t, d, assoc.TopK(rules, 4, 4))
	auto := solveWith(t, sys, Auto, solver.Options{}, 0)
	lbfgs := solveWith(t, sys, LBFGS, solver.Options{}, 0)
	if !sameBits(auto.X, lbfgs.X) || auto.Stats.Iterations != lbfgs.Stats.Iterations || auto.Stats.Evaluations != lbfgs.Stats.Evaluations {
		t.Fatalf("auto %s, lbfgs %s", auto.Stats, lbfgs.Stats)
	}
	if len(auto.Duals) != len(lbfgs.Duals) {
		t.Fatalf("%d duals, lbfgs %d", len(auto.Duals), len(lbfgs.Duals))
	}
	for i := range auto.Duals {
		if auto.Duals[i] != lbfgs.Duals[i] {
			t.Fatalf("dual %d: auto %+v, lbfgs %+v", i, auto.Duals[i], lbfgs.Duals[i])
		}
	}
}

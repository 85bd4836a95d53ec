package maxent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/linalg"
	"privacymaxent/internal/solver"
)

// paperSystem builds the running example's space and invariant system.
func paperSystem(t *testing.T) (*dataset.Table, *bucket.Bucketized, *constraint.Space, *constraint.System) {
	t.Helper()
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	return tbl, d, sp, sys
}

// knowledgeFor builds a DistributionKnowledge pinning P(sa | full QI tuple
// of qid) = p, conditioning on every QI attribute.
func knowledgeFor(tbl *dataset.Table, d *bucket.Bucketized, qid, sa int, p float64) constraint.DistributionKnowledge {
	qiIdx := tbl.Schema().QIIndices()
	codes := d.Universe().Codes(qid)
	return constraint.DistributionKnowledge{
		Attrs:  append([]int(nil), qiIdx...),
		Values: append([]int(nil), codes...),
		SA:     sa,
		P:      p,
	}
}

func TestUniformSatisfiesInvariants(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	x := Uniform(sp)
	if v := sys.MaxViolation(x); v > 1e-12 {
		t.Fatalf("uniform solution violates invariants by %g", v)
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("uniform mass = %g, want 1", sum)
	}
}

// TestConsistencyTheorem verifies Theorem 5: with no background
// knowledge, the LBFGS dual solution coincides with the closed-form
// within-bucket independent distribution of Eq. (9).
func TestConsistencyTheorem(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	want := Uniform(sp)
	for _, alg := range []Algorithm{LBFGS, SteepestDescent, GIS, Newton, IIS} {
		sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Solver: solver.Options{MaxIterations: 5000, GradTol: 1e-10}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i := range want {
			if math.Abs(sol.X[i]-want[i]) > 1e-6 {
				t.Fatalf("%v: x[%d] = %g, want %g (closed form)", alg, i, sol.X[i], want[i])
			}
		}
		if sol.Stats.MaxViolation > 1e-7 {
			t.Fatalf("%v: violation %g", alg, sol.Stats.MaxViolation)
		}
	}
}

// TestSection31ExactInference replays the paper's Sec. 3.1 example: with
// P(s1|q2) = 0 and P(s1 or s2 | q3) = 0, bucket 1's assignment is fully
// determined — q3 maps to s3, q2 maps to s2, and the two q1 records map to
// s1 and s2. Presolve alone pins all of bucket 1.
func TestSection31ExactInference(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	sa := tbl.Schema().SA()
	s1 := sa.MustCode("Breast Cancer")
	s2 := sa.MustCode("Flu")
	s3 := sa.MustCode("Pneumonia")
	ks := []constraint.DistributionKnowledge{
		knowledgeFor(tbl, d, 1, s1, 0), // P(s1 | q2) = 0
		knowledgeFor(tbl, d, 2, s1, 0), // P(s1 | q3) = 0   } together: P(s1 or s2 | q3) = 0
		knowledgeFor(tbl, d, 2, s2, 0), // P(s2 | q3) = 0   }
	}
	if err := constraint.AddKnowledge(sys, ks...); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(qid, s, b int, want float64) {
		t.Helper()
		if got := sol.Joint(constraint.Term{QID: qid, SA: s, Bucket: b}); math.Abs(got-want) > 1e-9 {
			t.Fatalf("P(q%d, s%d, %d) = %g, want %g", qid+1, s+1, b+1, got, want)
		}
	}
	check(2, s3, 0, 0.1) // q3 -> s3
	check(2, s1, 0, 0)
	check(2, s2, 0, 0)
	check(1, s2, 0, 0.1) // q2 -> s2
	check(1, s1, 0, 0)
	check(1, s3, 0, 0)
	check(0, s1, 0, 0.1) // one q1 -> s1
	check(0, s2, 0, 0.1) // the other q1 -> s2
	check(0, s3, 0, 0)
	if sol.Stats.MaxViolation > 1e-7 {
		t.Fatalf("violation %g", sol.Stats.MaxViolation)
	}
}

// TestBreastCancerInference replays the introduction's motivating attack:
// knowing P(Breast Cancer | male) = 0, the adversary concludes that the
// only female in bucket 1 (Cathy, q2) and in bucket 2 (Grace, q4) has
// Breast Cancer.
func TestBreastCancerInference(t *testing.T) {
	tbl, _, _, sys := paperSystem(t)
	gender := tbl.Schema().Index("Gender")
	male := tbl.Schema().Attr(gender).MustCode("male")
	s1 := tbl.Schema().SA().MustCode("Breast Cancer")
	k := constraint.DistributionKnowledge{Attrs: []int{gender}, Values: []int{male}, SA: s1, P: 0}
	if err := constraint.AddKnowledge(sys, k); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	post := sol.Posterior()
	// q2 = Cathy/Helen's tuple {female, college}: bucket 1's s1 must bind
	// to its only female... but q2 also appears in bucket 3 (Helen).
	// P(s1 | q2) = P(q2,s1,1)/P(q2) = 0.1/0.2 = 0.5.
	if got := post.P(1, s1); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("P(BreastCancer | q2) = %g, want 0.5", got)
	}
	// q4 = Grace {female, junior} appears only in bucket 2: certainty.
	if got := post.P(3, s1); math.Abs(got-1) > 1e-6 {
		t.Fatalf("P(BreastCancer | q4) = %g, want 1", got)
	}
	// No male tuple retains Breast Cancer mass.
	for _, qid := range []int{0, 2, 5} {
		if got := post.P(qid, s1); got > 1e-9 {
			t.Fatalf("P(BreastCancer | male q%d) = %g, want 0", qid+1, got)
		}
	}
}

func TestSolveWithKnowledgeAllAlgorithms(t *testing.T) {
	// P(s3 | q3) = 0.5 (the Sec. 5.5 example) is feasible and couples
	// buckets 1 and 2. All algorithms must agree on the solution.
	var ref []float64
	for _, alg := range []Algorithm{LBFGS, SteepestDescent, GIS, Newton, IIS} {
		tbl, d, _, sys := paperSystem(t)
		s3 := tbl.Schema().SA().MustCode("Pneumonia")
		if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
			t.Fatal(err)
		}
		sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Solver: solver.Options{MaxIterations: 20000, GradTol: 1e-10}})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if sol.Stats.MaxViolation > 1e-7 {
			t.Fatalf("%v: violation %g", alg, sol.Stats.MaxViolation)
		}
		// The knowledge must hold in the solution.
		got := sol.Joint(constraint.Term{QID: 2, SA: s3, Bucket: 0}) + sol.Joint(constraint.Term{QID: 2, SA: s3, Bucket: 1})
		if math.Abs(got-0.1) > 1e-7 {
			t.Fatalf("%v: P(q3,s3) = %g, want 0.1", alg, got)
		}
		if ref == nil {
			ref = sol.X
			continue
		}
		for i := range ref {
			if math.Abs(sol.X[i]-ref[i]) > 1e-5 {
				t.Fatalf("%v: x[%d] = %g, LBFGS got %g", alg, i, sol.X[i], ref[i])
			}
		}
	}
}

func TestDecomposeMatchesFullSolve(t *testing.T) {
	tbl, d, _, sysFull := paperSystem(t)
	_, _, _, sysDec := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	k := knowledgeFor(tbl, d, 2, s3, 0.5)
	if err := constraint.AddKnowledge(sysFull, k); err != nil {
		t.Fatal(err)
	}
	if err := constraint.AddKnowledge(sysDec, k); err != nil {
		t.Fatal(err)
	}
	full, err := SolveContext(context.Background(), sysFull, Options{Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := SolveContext(context.Background(), sysDec, Options{Decompose: true, Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.IrrelevantBuckets != 1 {
		t.Fatalf("irrelevant buckets = %d, want 1 (bucket 3)", dec.Stats.IrrelevantBuckets)
	}
	if dec.Stats.ActiveVariables >= full.Stats.ActiveVariables {
		t.Fatalf("decomposition did not shrink the problem: %d vs %d", dec.Stats.ActiveVariables, full.Stats.ActiveVariables)
	}
	for i := range full.X {
		if math.Abs(full.X[i]-dec.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: full %g vs decomposed %g", i, full.X[i], dec.X[i])
		}
	}
}

func TestDecomposeNoKnowledgeShortCircuits(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{Decompose: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Iterations != 0 || sol.Stats.ActiveVariables != 0 {
		t.Fatalf("expected closed-form short circuit: %+v", sol.Stats)
	}
	if sol.Stats.IrrelevantBuckets != sp.Data().NumBuckets() {
		t.Fatalf("irrelevant = %d, want all %d", sol.Stats.IrrelevantBuckets, sp.Data().NumBuckets())
	}
	want := Uniform(sp)
	for i := range want {
		if sol.X[i] != want[i] {
			t.Fatalf("x[%d] = %g, want closed form %g", i, sol.X[i], want[i])
		}
	}
}

// closedFormGrid is the algorithm grid the closed-form guarantee for
// irrelevant buckets must hold on: a gradient method, Newton and a
// scaling method.
var closedFormGrid = []Algorithm{LBFGS, Newton, GIS}

// fractionalRules returns the mined rules whose knowledge probability is
// strictly interior. Certain rules (P ∈ {0, 1}) push duals toward the
// boundary and make convergence a property of the workload, not of the
// decomposition.
func fractionalRules(t *testing.T, selected []assoc.Rule) []assoc.Rule {
	t.Helper()
	var frac []assoc.Rule
	for i := range selected {
		if p := selected[i].Knowledge().P; p > 0.05 && p < 0.95 {
			frac = append(frac, selected[i])
		}
	}
	if len(frac) < 4 {
		t.Fatalf("workload mined only %d fractional-confidence rules", len(frac))
	}
	return frac
}

// TestDecomposeIrrelevantBucketsClosedForm: on the Adult workload, every
// term of a bucket no knowledge row touches keeps the closed form
// (Theorem 5) bit for bit under decomposition, for every algorithm ×
// kernel worker combination, and the whole posterior is bit-identical
// across worker counts within one algorithm.
func TestDecomposeIrrelevantBucketsClosedForm(t *testing.T) {
	d, selected := solveWorkload(t)
	// A handful of rules keeps the touched set small (plenty of
	// irrelevant buckets to check) and Newton's dense Hessian cheap.
	sys := workloadSystem(t, d, fractionalRules(t, selected)[:4])
	sp := sys.Space()
	uniform := Uniform(sp)

	touched := map[int]bool{}
	for _, b := range constraint.TouchedBuckets(sys) {
		touched[b] = true
	}
	if len(touched) == 0 || len(touched) == d.NumBuckets() {
		t.Fatalf("degenerate workload: %d/%d buckets touched", len(touched), d.NumBuckets())
	}

	for _, alg := range closedFormGrid {
		var ref []float64
		for _, kw := range kernelWorkerGrid {
			name := fmt.Sprintf("%v/kw=%d", alg, kw)
			sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Decompose: true, Workers: kw})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("%s: did not converge: %s", name, sol.Stats)
			}
			if got, want := sol.Stats.IrrelevantBuckets, d.NumBuckets()-len(touched); got != want {
				t.Fatalf("%s: IrrelevantBuckets = %d, want %d", name, got, want)
			}
			for id := 0; id < sp.Len(); id++ {
				if touched[sp.Term(id).Bucket] {
					continue
				}
				if sol.X[id] != uniform[id] {
					t.Fatalf("%s: irrelevant term %d = %v, closed form %v", name, id, sol.X[id], uniform[id])
				}
			}
			if ref == nil {
				ref = sol.X
				continue
			}
			for id := range ref {
				if sol.X[id] != ref[id] {
					t.Fatalf("%s: term %d = %v, differs from kw=%d value %v",
						name, id, sol.X[id], kernelWorkerGrid[0], ref[id])
				}
			}
		}
	}
}

// TestDecomposeAllBucketsIrrelevant: the K = 0 edge case on the Adult
// workload. Every bucket is irrelevant, no numeric solve runs, and the
// posterior is the closed form bit for bit on every algorithm × worker
// combination.
func TestDecomposeAllBucketsIrrelevant(t *testing.T) {
	d, _ := solveWorkload(t)
	sys := workloadSystem(t, d, nil)
	uniform := Uniform(sys.Space())

	for _, alg := range closedFormGrid {
		for _, kw := range kernelWorkerGrid {
			name := fmt.Sprintf("%v/kw=%d", alg, kw)
			sol, err := SolveContext(context.Background(), sys, Options{Algorithm: alg, Decompose: true, Workers: kw})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("%s: did not converge", name)
			}
			if sol.Stats.IrrelevantBuckets != d.NumBuckets() {
				t.Fatalf("%s: IrrelevantBuckets = %d, want all %d",
					name, sol.Stats.IrrelevantBuckets, d.NumBuckets())
			}
			if sol.Stats.ReducedDualDim != 0 || sol.Stats.Iterations != 0 {
				t.Fatalf("%s: numeric solve ran (dim %d, %d iterations) on a knowledge-free system",
					name, sol.Stats.ReducedDualDim, sol.Stats.Iterations)
			}
			for id, want := range uniform {
				if sol.X[id] != want {
					t.Fatalf("%s: term %d = %v, closed form %v", name, id, sol.X[id], want)
				}
			}
		}
	}
}

func TestInfeasibleContradictoryKnowledge(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	s5 := tbl.Schema().SA().MustCode("Lung Cancer")
	// q5 = Iris {female, graduate} appears only in bucket 3 where s5 also
	// appears once: P(s5|q5)=1 pins the term to 0.1, P(s5|q5)=0 pins it
	// to 0 — a contradiction presolve must surface.
	if err := constraint.AddKnowledge(sys,
		knowledgeFor(tbl, d, 4, s5, 1),
		knowledgeFor(tbl, d, 4, s5, 0),
	); err != nil {
		t.Fatal(err)
	}
	_, err := SolveContext(context.Background(), sys, Options{})
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleExcessProbability(t *testing.T) {
	// P(s1 | q2) = 1 demands joint mass 0.2 for (q2, s1), but s1 only
	// coexists with q2 in bucket 1, which holds s1 mass 0.1. The dual is
	// unbounded; SolveContext must not report a converged, feasible solution.
	tbl, d, _, sys := paperSystem(t)
	s1 := tbl.Schema().SA().MustCode("Breast Cancer")
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 1, s1, 1)); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{Solver: solver.Options{MaxIterations: 300}})
	if err != nil {
		var inf *ErrInfeasible
		if errors.As(err, &inf) {
			return // presolve caught it: fine
		}
		t.Fatal(err)
	}
	if sol.Stats.Converged && sol.Stats.MaxViolation < 1e-6 {
		t.Fatalf("infeasible system reported solved: %+v", sol.Stats)
	}
}

func TestPosteriorRowsSumToOne(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	post := sol.Posterior()
	for qid := 0; qid < d.Universe().Len(); qid++ {
		var sum float64
		for s := 0; s < post.NumSA(); s++ {
			sum += post.P(qid, s)
		}
		if math.Abs(sum-1) > 1e-7 {
			t.Fatalf("posterior row q%d sums to %g", qid+1, sum)
		}
	}
}

func TestPosteriorNoKnowledgeMatchesBucketFormula(t *testing.T) {
	// Without knowledge, P(s|q) = Σ_b P(q,b)·(share of s in b) / P(q) —
	// the standard formula existing metrics use (Sec. 3.1 + Eq. 9).
	_, d, sp, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	post := sol.Posterior()
	u := d.Universe()
	for qid := 0; qid < u.Len(); qid++ {
		for s := 0; s < d.SACardinality(); s++ {
			var want float64
			for b := 0; b < d.NumBuckets(); b++ {
				if d.PQB(qid, b) == 0 {
					continue
				}
				share := float64(d.Bucket(b).SACount(s)) / float64(d.Bucket(b).Size())
				want += d.PQB(qid, b) * share
			}
			want /= u.P(qid)
			if got := post.P(qid, s); math.Abs(got-want) > 1e-6 {
				t.Fatalf("P(s%d|q%d) = %g, want %g", s+1, qid+1, got, want)
			}
		}
	}
	_ = sp
}

func TestEntropyIdentities(t *testing.T) {
	_, d, _, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// H(S|Q,B) = H(Q,S,B) − H(Q,B) (the identity Sec. 3.2 uses to swap
	// objectives).
	var hqb float64
	for b := 0; b < d.NumBuckets(); b++ {
		for _, q := range d.Bucket(b).DistinctQIDs() {
			p := d.PQB(q, b)
			if p > 0 {
				hqb -= p * math.Log2(p)
			}
		}
	}
	joint := sol.JointEntropy()
	cond := sol.ConditionalEntropy()
	if math.Abs(joint-hqb-cond) > 1e-6 {
		t.Fatalf("H(Q,S,B)=%g, H(Q,B)=%g, H(S|Q,B)=%g: identity violated", joint, hqb, cond)
	}
	if cond <= 0 {
		t.Fatalf("conditional entropy %g, want > 0", cond)
	}
}

// TestKnowledgeReducesEntropy: adding (consistent) knowledge can only
// lower the maximum achievable entropy.
func TestKnowledgeReducesEntropy(t *testing.T) {
	tbl, d, _, sysPlain := paperSystem(t)
	plain, err := SolveContext(context.Background(), sysPlain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, sysK := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sysK, knowledgeFor(tbl, d, 2, s3, 1)); err != nil {
		t.Fatal(err)
	}
	withK, err := SolveContext(context.Background(), sysK, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withK.JointEntropy() >= plain.JointEntropy() {
		t.Fatalf("entropy with knowledge %g >= without %g", withK.JointEntropy(), plain.JointEntropy())
	}
}

func TestAlgorithmString(t *testing.T) {
	if Auto.String() != "auto" || LBFGS.String() != "lbfgs" || SteepestDescent.String() != "steepest" || GIS.String() != "gis" || Newton.String() != "newton" || IIS.String() != "iis" {
		t.Fatal("Algorithm.String mismatch")
	}
	if got := Algorithm(9).String(); got != "Algorithm(9)" {
		t.Fatalf("unknown algorithm = %q", got)
	}
}

// TestParseAlgorithm: ParseAlgorithm inverts String for all six
// algorithms in any case, maps the empty name to the Auto default and
// rejects unknown names.
func TestParseAlgorithm(t *testing.T) {
	for _, alg := range []Algorithm{Auto, LBFGS, SteepestDescent, GIS, Newton, IIS} {
		for _, name := range []string{alg.String(), strings.ToUpper(alg.String())} {
			got, err := ParseAlgorithm(name)
			if err != nil || got != alg {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, alg)
			}
		}
	}
	if got, err := ParseAlgorithm(""); err != nil || got != Auto {
		t.Errorf("ParseAlgorithm(\"\") = %v, %v; want auto", got, err)
	}
	if _, err := ParseAlgorithm("simplex"); err == nil || !strings.Contains(err.Error(), `"simplex"`) {
		t.Fatalf("unknown algorithm: err = %v", err)
	}
}

func TestJointOutsideSpaceIsZero(t *testing.T) {
	_, _, _, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// q1 never appears in bucket 3.
	if got := sol.Joint(constraint.Term{QID: 0, SA: 1, Bucket: 2}); got != 0 {
		t.Fatalf("out-of-space joint = %g, want 0", got)
	}
}

// TestRandomFeasibleKnowledge is the integration property test: on random
// bucketized data with knowledge derived from the (feasible by
// construction) original table, the solver converges, stays non-negative,
// and satisfies every constraint.
func TestRandomFeasibleKnowledge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		tbl := randomTestTable(rng, 30+rng.Intn(40), 2, 2, 5)
		d, partition, err := bucket.Anatomize(tbl, bucket.Options{L: 3, ExemptMostFrequent: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sp := constraint.NewSpace(d)
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		truth, err := dataset.TrueConditional(tbl, d.Universe())
		if err != nil {
			t.Fatal(err)
		}
		// Up to 4 true-conditional rules (feasible: the original data
		// satisfies them alongside all invariants).
		u := d.Universe()
		for i := 0; i < 4; i++ {
			qid := rng.Intn(u.Len())
			sa := rng.Intn(d.SACardinality())
			k := knowledgeFor(tbl, d, qid, sa, truth.P(qid, sa))
			if err := constraint.AddKnowledge(sys, k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		sol, err := SolveContext(context.Background(), sys, Options{Decompose: trial%2 == 0, Solver: solver.Options{MaxIterations: 3000, GradTol: 1e-9}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Stats.MaxViolation > 1e-5 {
			t.Fatalf("trial %d: violation %g (converged=%v)", trial, sol.Stats.MaxViolation, sol.Stats.Converged)
		}
		for i, v := range sol.X {
			if v < -1e-12 {
				t.Fatalf("trial %d: x[%d] = %g < 0", trial, i, v)
			}
		}
		_ = partition
	}
}

// randomTestTable builds a random microdata table (same shape as the
// constraint package's helper).
func randomTestTable(rng *rand.Rand, rows, nQI, qiCard, saCard int) *dataset.Table {
	attrs := make([]*dataset.Attribute, 0, nQI+1)
	for i := 0; i < nQI; i++ {
		dom := make([]string, qiCard)
		for v := range dom {
			dom[v] = strconv.Itoa(v)
		}
		attrs = append(attrs, dataset.NewAttribute("Q"+strconv.Itoa(i), dataset.QuasiIdentifier, dom))
	}
	saDom := make([]string, saCard)
	for v := range saDom {
		saDom[v] = "s" + strconv.Itoa(v)
	}
	attrs = append(attrs, dataset.NewAttribute("SA", dataset.Sensitive, saDom))
	tbl := dataset.NewTable(dataset.MustSchema(attrs...))
	row := make([]int, nQI+1)
	for r := 0; r < rows; r++ {
		for i := 0; i < nQI; i++ {
			row[i] = rng.Intn(qiCard)
		}
		s := rng.Intn(saCard)
		if rng.Intn(3) == 0 {
			s = 0
		}
		row[nQI] = s
		if err := tbl.AppendCoded(row); err != nil {
			panic(err)
		}
	}
	return tbl
}

// TestComponentDecomposition verifies the connected-component split: two
// knowledge statements touching disjoint bucket sets yield two
// independent sub-problems whose combined solution matches the full
// solve.
func TestComponentDecomposition(t *testing.T) {
	tbl, d, _, sysFull := paperSystem(t)
	_, _, _, sysDec := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	s5 := tbl.Schema().SA().MustCode("Lung Cancer")
	ks := []constraint.DistributionKnowledge{
		knowledgeFor(tbl, d, 2, s3, 0.5), // q3: buckets 1, 2
		knowledgeFor(tbl, d, 4, s5, 0.5), // q5: bucket 3 only
	}
	if err := constraint.AddKnowledge(sysFull, ks...); err != nil {
		t.Fatal(err)
	}
	if err := constraint.AddKnowledge(sysDec, ks...); err != nil {
		t.Fatal(err)
	}
	full, err := SolveContext(context.Background(), sysFull, Options{Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := SolveContext(context.Background(), sysDec, Options{Decompose: true, Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.Components != 2 {
		t.Fatalf("components = %d, want 2 ({b1,b2} and {b3})", dec.Stats.Components)
	}
	if dec.Stats.IrrelevantBuckets != 0 {
		t.Fatalf("irrelevant = %d, want 0", dec.Stats.IrrelevantBuckets)
	}
	for i := range full.X {
		if math.Abs(full.X[i]-dec.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: full %g vs decomposed %g", i, full.X[i], dec.X[i])
		}
	}
}

// TestParallelComponentsMatchSequential runs a many-component problem
// with and without worker goroutines.
func TestParallelComponentsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	tbl := randomTestTable(rng, 120, 3, 5, 6)
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 3, ExemptMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	buildSys := func() *constraint.System {
		sp := constraint.NewSpace(d)
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		u := d.Universe()
		for qid := 0; qid < u.Len(); qid += 3 {
			for s := 0; s < d.SACardinality(); s++ {
				if truth.P(qid, s) > 0 {
					k := knowledgeFor(tbl, d, qid, s, truth.P(qid, s))
					if err := constraint.AddKnowledge(sys, k); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		return sys
	}
	seq, err := SolveContext(context.Background(), buildSys(), Options{Decompose: true, Solver: solver.Options{GradTol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveContext(context.Background(), buildSys(), Options{Decompose: true, Workers: 4, Solver: solver.Options{GradTol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Components < 2 {
		t.Fatalf("test needs multiple components, got %d", seq.Stats.Components)
	}
	if par.Stats.Components != seq.Stats.Components {
		t.Fatalf("components differ: %d vs %d", par.Stats.Components, seq.Stats.Components)
	}
	for i := range seq.X {
		if math.Abs(seq.X[i]-par.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: sequential %g vs parallel %g", i, seq.X[i], par.X[i])
		}
	}
	if seq.Stats.MaxViolation > 1e-6 || par.Stats.MaxViolation > 1e-6 {
		t.Fatalf("violations: %g, %g", seq.Stats.MaxViolation, par.Stats.MaxViolation)
	}
}

// TestDualEvalAllocationFree: once its scratch is sized, the dual's Eval
// and Primal allocate nothing, with or without a Runner, so the
// optimizer's iteration loop stays allocation-free. Neither does a
// Newton step once its buffers are sized — on this unpresolved system
// its Schur complement is singular at λ = 0, so that covers the ridge
// retries too.
func TestDualEvalAllocationFree(t *testing.T) {
	d, selected := solveWorkload(t)
	sys := workloadSystem(t, d, selected)
	m, rhs := sys.Matrix()
	serial := func(n int, fn func(int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	for name, run := range map[string]linalg.Runner{"nil": nil, "serial": serial} {
		obj := newDualObjective(m, rhs)
		obj.setRunner(run)
		obj.step = newNewtonStep(obj, systemRows(sys))
		lambda := make([]float64, obj.Dim())
		grad := make([]float64, obj.Dim())
		dir := make([]float64, obj.Dim())
		x := make([]float64, m.Cols())
		if n := testing.AllocsPerRun(20, func() { obj.Eval(lambda, grad) }); n != 0 {
			t.Errorf("%s runner: Eval allocates %v times per call", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { obj.Primal(lambda, x) }); n != 0 {
			t.Errorf("%s runner: Primal allocates %v times per call", name, n)
		}
		if !obj.NewtonStep(lambda, grad, dir) { // sizes the step's buffers
			t.Fatalf("%s runner: step solve failed", name)
		}
		if n := testing.AllocsPerRun(20, func() { obj.NewtonStep(lambda, grad, dir) }); n != 0 {
			t.Errorf("%s runner: NewtonStep allocates %v times per call", name, n)
		}
		obj.release()
	}
}

// TestDualsExposed: the LBFGS path reports one multiplier per surviving
// constraint, and tightening knowledge shows up as a large-magnitude
// multiplier on the knowledge row.
func TestDualsExposed(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.9)); err != nil {
		t.Fatal(err)
	}
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Duals) == 0 {
		t.Fatal("no duals reported")
	}
	var knowledgeDual *ConstraintDual
	for i := range sol.Duals {
		if sol.Duals[i].Kind == constraint.Knowledge {
			knowledgeDual = &sol.Duals[i]
		}
	}
	if knowledgeDual == nil {
		t.Fatal("knowledge constraint has no dual")
	}
	// P(s3|q3) = 0.9 pulls hard against the data (closed form gives
	// ~0.42): the multiplier must be decidedly non-zero.
	if math.Abs(knowledgeDual.Lambda) < 0.1 {
		t.Fatalf("knowledge dual %g suspiciously small", knowledgeDual.Lambda)
	}
	// GIS reports no duals.
	_, _, _, sys2 := paperSystem(t)
	if err := constraint.AddKnowledge(sys2, knowledgeFor(tbl, d, 2, s3, 0.9)); err != nil {
		t.Fatal(err)
	}
	gisSol, err := SolveContext(context.Background(), sys2, Options{Algorithm: GIS, Solver: solver.Options{MaxIterations: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gisSol.Duals) != 0 {
		t.Fatalf("GIS reported %d duals, want 0", len(gisSol.Duals))
	}
}

// TestMaxEntDominatesFeasiblePoints is the defining property of the
// method: among all feasible distributions, the solver's has maximal
// entropy. The original data's assignment is feasible (it satisfies the
// invariants and any truth-derived knowledge), so its entropy can never
// exceed the solution's.
func TestMaxEntDominatesFeasiblePoints(t *testing.T) {
	entropy := func(x []float64) float64 {
		var h float64
		for _, v := range x {
			if v > 0 {
				h -= v * math.Log2(v)
			}
		}
		return h
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		tbl := randomTestTable(rng, 30+rng.Intn(30), 2, 2, 5)
		d, partition, err := bucket.Anatomize(tbl, bucket.Options{L: 3, ExemptMostFrequent: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sp := constraint.NewSpace(d)
		sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
		truth, err := dataset.TrueConditional(tbl, d.Universe())
		if err != nil {
			t.Fatal(err)
		}
		// Two truth-consistent knowledge statements.
		u := d.Universe()
		for i := 0; i < 2; i++ {
			qid := rng.Intn(u.Len())
			for s := 0; s < d.SACardinality(); s++ {
				if truth.P(qid, s) > 0 {
					if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, qid, s, truth.P(qid, s))); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		sol, err := SolveContext(context.Background(), sys, Options{Solver: solver.Options{MaxIterations: 4000, GradTol: 1e-10}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The true data is one feasible assignment.
		truthAssignment, err := constraint.AssignmentFromTable(tbl, d, partition)
		if err != nil {
			t.Fatal(err)
		}
		xTruth := truthAssignment.Vector(sp)
		if hT, hS := entropy(xTruth), entropy(sol.X); hT > hS+1e-6 {
			t.Fatalf("trial %d: truth entropy %g exceeds maxent %g", trial, hT, hS)
		}
		// Random feasible assignments (they satisfy the invariants; they
		// may violate the knowledge, in which case skip) also never beat
		// the solution.
		for inner := 0; inner < 5; inner++ {
			a := constraint.RandomAssignment(d, rng)
			x := a.Vector(sp)
			if sys.MaxViolation(x) > 1e-9 {
				continue
			}
			if hA, hS := entropy(x), entropy(sol.X); hA > hS+1e-6 {
				t.Fatalf("trial %d: feasible assignment entropy %g exceeds maxent %g", trial, hA, hS)
			}
		}
	}
}

func TestConditionalInBucket(t *testing.T) {
	_, d, _, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without knowledge, P(S|q,b) is the bucket's SA share (Eq. 1).
	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		for _, qid := range bk.DistinctQIDs() {
			row := sol.ConditionalInBucket(qid, b)
			var sum float64
			for s := 0; s < d.SACardinality(); s++ {
				want := float64(bk.SACount(s)) / float64(bk.Size())
				if math.Abs(row[s]-want) > 1e-6 {
					t.Fatalf("P(s%d|q%d,b%d) = %g, want %g", s+1, qid+1, b+1, row[s], want)
				}
				sum += row[s]
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("row sums to %g", sum)
			}
		}
	}
	// Absent (q, b) pairs give zeros.
	row := sol.ConditionalInBucket(0, 2) // q1 not in bucket 3
	for s, v := range row {
		if v != 0 {
			t.Fatalf("ghost mass at s%d: %g", s+1, v)
		}
	}
}

// TestSolveConstraintsDirect exercises the low-level entry point the
// pseudonym model builds on: a tiny 3-variable system with one pinned
// variable and two coupled ones.
func TestSolveConstraintsDirect(t *testing.T) {
	cons := []constraint.Constraint{
		{Kind: constraint.QIInvariant, Label: "mass", Terms: []int{0, 1}, Coeffs: []float64{1, 1}, RHS: 0.6},
		{Kind: constraint.Knowledge, Label: "pin", Terms: []int{2}, Coeffs: []float64{1}, RHS: 0.4},
	}
	init := []float64{0, 0, 0}
	x, stats, err := SolveConstraintsContext(context.Background(), 3, cons, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Maximum entropy splits the coupled mass evenly; the singleton is
	// pinned by presolve.
	if math.Abs(x[0]-0.3) > 1e-6 || math.Abs(x[1]-0.3) > 1e-6 {
		t.Fatalf("x = %v, want [0.3 0.3 0.4]", x)
	}
	if math.Abs(x[2]-0.4) > 1e-12 {
		t.Fatalf("pinned x[2] = %g", x[2])
	}
	if stats.FixedVariables != 1 || stats.ActiveVariables != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.MaxViolation > 1e-8 {
		t.Fatalf("violation %g", stats.MaxViolation)
	}
	// Arity guard.
	if _, _, err := SolveConstraintsContext(context.Background(), 3, cons, []float64{0}, Options{}); err == nil {
		t.Fatal("expected init-length error")
	}
	// Infeasible systems surface the typed error with a message.
	bad := []constraint.Constraint{
		{Kind: constraint.Knowledge, Label: "a", Terms: []int{0}, Coeffs: []float64{1}, RHS: 0.1},
		{Kind: constraint.Knowledge, Label: "b", Terms: []int{0}, Coeffs: []float64{1}, RHS: 0.9},
	}
	_, _, err = SolveConstraintsContext(context.Background(), 1, bad, []float64{0}, Options{})
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if inf.Error() == "" || !strings.Contains(inf.Error(), "infeasible") {
		t.Fatalf("error message = %q", inf.Error())
	}
}

// TestSolutionSpaceAccessor covers the Space getter.
func TestSolutionSpaceAccessor(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	sol, err := SolveContext(context.Background(), sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Space() != sp {
		t.Fatal("Space accessor mismatch")
	}
}

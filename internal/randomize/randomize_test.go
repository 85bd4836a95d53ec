package randomize

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
	"privacymaxent/internal/solver"
)

func TestMechanismProbabilities(t *testing.T) {
	m := Mechanism{Rho: 0.7, M: 4}
	for s := 0; s < m.M; s++ {
		var sum float64
		for o := 0; o < m.M; o++ {
			p := m.Prob(o, s)
			if p < 0 || p > 1 {
				t.Fatalf("Prob(%d|%d) = %g", o, s, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("column %d sums to %g", s, sum)
		}
	}
	if got := m.Prob(2, 2); math.Abs(got-(0.7+0.3/4)) > 1e-12 {
		t.Fatalf("diagonal = %g", got)
	}
	if err := (Mechanism{Rho: 1.5, M: 4}).Validate(); err == nil {
		t.Fatal("expected rho validation error")
	}
	if err := (Mechanism{Rho: 0.5, M: 1}).Validate(); err == nil {
		t.Fatal("expected domain validation error")
	}
}

// correlatedTable builds a table with few, populous QI groups and a
// strongly group-dependent SA so reconstruction quality is measurable.
func correlatedTable(rng *rand.Rand, n int) *dataset.Table {
	g := dataset.NewAttribute("G", dataset.QuasiIdentifier, []string{"g0", "g1", "g2", "g3"})
	s := dataset.NewAttribute("S", dataset.Sensitive, []string{"s0", "s1", "s2", "s3"})
	tbl := dataset.NewTable(dataset.MustSchema(g, s))
	for i := 0; i < n; i++ {
		grp := rng.Intn(4)
		// Group j prefers value j with probability 0.7.
		val := grp
		if rng.Float64() > 0.7 {
			val = rng.Intn(4)
		}
		if err := tbl.AppendCoded([]int{grp, val}); err != nil {
			panic(err)
		}
	}
	return tbl
}

func TestPerturbIdentityAtRhoOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := correlatedTable(rng, 100)
	pub, mech, err := Perturb(tbl, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mech.M != 4 {
		t.Fatalf("M = %d", mech.M)
	}
	for r := 0; r < tbl.Len(); r++ {
		if pub.SACode(r) != tbl.SACode(r) {
			t.Fatalf("row %d changed at rho=1", r)
		}
	}
}

func TestPerturbDeterministicAndDisturbing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := correlatedTable(rng, 400)
	a, _, err := Perturb(tbl, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Perturb(tbl, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for r := 0; r < tbl.Len(); r++ {
		if a.SACode(r) != b.SACode(r) {
			t.Fatal("Perturb is not deterministic")
		}
		if a.SACode(r) != tbl.SACode(r) {
			changed++
		}
		// QI untouched.
		if a.Row(r)[0] != tbl.Row(r)[0] {
			t.Fatal("QI column modified")
		}
	}
	// With rho = 0.5 and uniform redraw over 4 values, ~37.5% of records
	// change.
	frac := float64(changed) / float64(tbl.Len())
	if frac < 0.25 || frac > 0.5 {
		t.Fatalf("changed fraction = %g, want ≈ 0.375", frac)
	}
}

func TestEstimateBeatsNaiveBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := correlatedTable(rng, 4000)
	truthU := dataset.NewUniverse(tbl)
	truth, err := dataset.TrueConditional(tbl, truthU)
	if err != nil {
		t.Fatal(err)
	}
	pub, mech, err := Perturb(tbl, 0.5, 23)
	if err != nil {
		t.Fatal(err)
	}

	est, stats, err := EstimateContext(context.Background(), pub, mech, 3, maxent.Options{Solver: solver.Options{MaxIterations: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ObservedConditional(pub)
	if err != nil {
		t.Fatal(err)
	}

	// The universes coincide structurally (QI untouched): remap truth by
	// key order to compare. The perturbed table visits rows in the same
	// order, so the universes are identical.
	accEst, err := metrics.EstimationAccuracy(remap(truth, est.Universe()), est)
	if err != nil {
		t.Fatal(err)
	}
	accNaive, err := metrics.EstimationAccuracy(remap(truth, naive.Universe()), naive)
	if err != nil {
		t.Fatal(err)
	}
	if accEst >= accNaive {
		t.Fatalf("MaxEnt inversion (%g) should beat the naive read-off (%g) at rho=0.5", accEst, accNaive)
	}
	if stats.MaxViolation > 1e-3 {
		t.Fatalf("violation %g", stats.MaxViolation)
	}
	// Posterior rows are distributions.
	for qid := 0; qid < est.Universe().Len(); qid++ {
		var sum float64
		for s := 0; s < est.NumSA(); s++ {
			sum += est.P(qid, s)
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("row %d sums to %g", qid, sum)
		}
	}
}

// remap rebuilds a conditional over the target universe, matching QI keys.
func remap(c *dataset.Conditional, target *dataset.Universe) *dataset.Conditional {
	out := dataset.NewConditional(target, c.NumSA())
	src := c.Universe()
	for qid := 0; qid < target.Len(); qid++ {
		if srcID, ok := src.QID(target.Key(qid)); ok {
			for s := 0; s < c.NumSA(); s++ {
				out.Set(qid, s, c.P(srcID, s))
			}
		}
	}
	return out
}

func TestEstimateAtRhoOneRecoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := correlatedTable(rng, 800)
	pub, mech, err := Perturb(tbl, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A tight tolerance (z = 0.5): with exact counts the boxes pin the
	// reconstruction near the truth. (Wide boxes would let MaxEnt drift
	// toward uniform inside them — by design.)
	est, _, err := EstimateContext(context.Background(), pub, mech, 0.5, maxent.Options{Solver: solver.Options{MaxIterations: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, dataset.NewUniverse(tbl))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.EstimationAccuracy(remap(truth, est.Universe()), est)
	if err != nil {
		t.Fatal(err)
	}
	// At rho = 1 the boxes collapse around exact counts: near-perfect
	// reconstruction (small slack from the z·σ tolerance).
	if acc > 0.05 {
		t.Fatalf("accuracy at rho=1 = %g, want ≈ 0", acc)
	}
}

func TestEstimateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := correlatedTable(rng, 50)
	pub, mech, err := Perturb(tbl, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := mech
	bad.M = 7
	if _, _, err := EstimateContext(context.Background(), pub, bad, 3, maxent.Options{}); err == nil {
		t.Fatal("expected domain mismatch error")
	}
	if _, _, err := Perturb(tbl, -0.1, 1); err == nil {
		t.Fatal("expected rho validation error")
	}
	noSA := dataset.NewTable(dataset.MustSchema(
		dataset.NewAttribute("G", dataset.QuasiIdentifier, []string{"x"}),
	))
	noSA.MustAppend("x")
	if _, _, err := Perturb(noSA, 0.5, 1); err == nil {
		t.Fatal("expected no-SA error")
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
)

// referenceSolve formulates and solves o from scratch, without Prepared:
// a fresh space, the data invariants, then the knowledge as equality
// rows or, with o.Eps > 0, as ±ε boxes. It is the test's independent
// account of what a prepared quantification must compute.
func referenceSolve(t *testing.T, q *Quantifier, d *bucket.Bucketized, o QuantifyOptions) *maxent.Solution {
	t.Helper()
	ctx := context.Background()
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: !q.Config().KeepRedundant})
	if o.Eps > 0 {
		ineqs := make([]maxent.Inequality, len(o.Knowledge))
		for i, k := range o.Knowledge {
			iq, err := maxent.VagueKnowledge(sp, k, o.Eps)
			if err != nil {
				t.Fatal(err)
			}
			ineqs[i] = iq
		}
		sol, err := maxent.SolveWithInequalitiesContext(ctx, sys, ineqs, q.Config().Solve)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	if err := constraint.AddKnowledge(sys, o.Knowledge...); err != nil {
		t.Fatal(err)
	}
	opts := q.Config().Solve
	opts.Decompose = !q.Config().NoDecompose
	sol, err := maxent.SolveContext(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestPreparedMatchesQuantify checks that the prepared path — formulate
// the base system once, clone and append knowledge per call — computes
// bit for bit what a from-scratch formulation computes, for exact and
// vague knowledge, and that warm starts move no answer.
func TestPreparedMatchesQuantify(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		records int
		seeds   []int64
		bounds  []Bound
		eps     []float64
	}{
		{1000, []int64{1, 2, 3}, []Bound{{}, {KPos: 3, KNeg: 3}, {KPos: 20, KNeg: 20}, {KPos: 50}, {KNeg: 100}}, []float64{0}},
		{600, []int64{1, 2}, []Bound{{KPos: 2, KNeg: 2}, {KPos: 6, KNeg: 6}}, []float64{0.05, 0.2}},
	}
	q := New(Config{RuleSizes: []int{1, 2}})
	for _, c := range cases {
		for _, seed := range c.seeds {
			tbl := adult.Generate(adult.Config{Records: c.records, Seed: seed})
			d, _, err := q.BucketizeContext(ctx, tbl)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := dataset.TrueConditional(tbl, d.Universe())
			if err != nil {
				t.Fatal(err)
			}
			rules, err := q.MineRulesContext(ctx, tbl)
			if err != nil {
				t.Fatal(err)
			}
			p := prepare(t, q, d)
			if p.Space() == nil || p.Space().Data() != d {
				t.Fatal("Prepared does not expose its space over the publication")
			}
			for _, bound := range c.bounds {
				var knowledge []constraint.DistributionKnowledge
				for _, r := range assoc.TopK(rules, bound.KPos, bound.KNeg) {
					knowledge = append(knowledge, r.Knowledge())
				}
				for _, eps := range c.eps {
					o := QuantifyOptions{Knowledge: knowledge, Truth: truth, Eps: eps}
					name := fmt.Sprintf("records=%d seed=%d bound=%+v eps=%g", c.records, seed, bound, eps)
					want := referenceSolve(t, q, d, o)
					got, err := p.QuantifyWithOptions(ctx, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got.Solution.X) != len(want.X) {
						t.Fatalf("%s: %d cells, reference has %d", name, len(got.Solution.X), len(want.X))
					}
					for i := range want.X {
						if math.Float64bits(got.Solution.X[i]) != math.Float64bits(want.X[i]) {
							t.Fatalf("%s: cell %d = %v, reference %v", name, i, got.Solution.X[i], want.X[i])
						}
					}
					if got.Solution.Stats.Iterations != want.Stats.Iterations {
						t.Fatalf("%s: %d iterations, reference %d", name, got.Solution.Stats.Iterations, want.Stats.Iterations)
					}
				}
			}
		}
	}

	// Warm-starting from the cold solve's duals must not move the
	// posterior, only reduce work.
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 9})
	q = New(Config{RuleSizes: []int{1}, MinSupport: 1})
	d, _, err := q.BucketizeContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, q, d)
	for _, bound := range []Bound{{}, {KPos: 3, KNeg: 3}} {
		cold, err := p.QuantifyWithRules(ctx, rules, bound, truth, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Bound != bound {
			t.Fatalf("prepared bound = %+v, want %+v", cold.Bound, bound)
		}
		warm, err := p.QuantifyWithRules(ctx, rules, bound, truth, cold.Solution.Duals)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm.EstimationAccuracy - cold.EstimationAccuracy); d > 1e-9 {
			t.Fatalf("bound %+v: warm accuracy deviates by %g", bound, d)
		}
		if warm.Solution.Stats.Iterations > cold.Solution.Stats.Iterations {
			t.Fatalf("bound %+v: warm solve took more iterations (%d > %d)",
				bound, warm.Solution.Stats.Iterations, cold.Solution.Stats.Iterations)
		}
	}
}

// TestPreparedCloneSystemIsolated checks that each CloneSystem call
// yields an independently appendable overlay of the cached base system.
func TestPreparedCloneSystemIsolated(t *testing.T) {
	tbl := dataset.PaperExample()
	q := New(Config{})
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Prepare(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.CloneSystem(), p.CloneSystem()
	if a == b {
		t.Fatal("CloneSystem returned the same overlay twice")
	}
	baseLen := a.Len()
	if baseLen == 0 || baseLen != b.Len() {
		t.Fatalf("clone lengths %d/%d", baseLen, b.Len())
	}
	ca := *a.At(0)
	ca.Label = "probe"
	if err := a.Add(ca); err != nil {
		t.Fatal(err)
	}
	if b.Len() != baseLen || p.CloneSystem().Len() != baseLen {
		t.Fatal("append to one clone leaked into the shared base")
	}
}

package core

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
)

// TestQuantifyDeltaChain checks the incremental quantification path end
// to end: a cold QuantifyDelta seeds a DeltaState, adding one rule to
// the knowledge set re-solves only the components that rule touches,
// and the delta posterior matches an independent cold solve of the new
// knowledge set.
func TestQuantifyDeltaChain(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 9})
	q := New(Config{RuleSizes: []int{1}, MinSupport: 1})
	d, _, err := q.BucketizeContext(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	rules, err := q.MineRulesContext(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := q.Prepare(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	know := func(kpos, kneg int) []constraint.DistributionKnowledge {
		sel := assoc.TopK(rules, kpos, kneg)
		out := make([]constraint.DistributionKnowledge, len(sel))
		for i := range sel {
			out[i] = sel[i].Knowledge()
		}
		return out
	}
	k1 := know(3, 3)
	k2 := know(4, 3) // one extra positive rule on top of k1

	rep1, st1, err := p.QuantifyDelta(ctx, QuantifyOptions{Knowledge: k1, Truth: truth}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Solution.Stats.ReusedComponents != 0 || rep1.Solution.Stats.DirtyComponents != 0 {
		t.Fatalf("cold delta counted reuse: %d/%d",
			rep1.Solution.Stats.ReusedComponents, rep1.Solution.Stats.DirtyComponents)
	}
	if st1 == nil {
		t.Fatal("converged cold solve returned no delta state")
	}

	rep2, st2, err := p.QuantifyDelta(ctx, QuantifyOptions{Knowledge: k2, Truth: truth}, st1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Solution.Stats.Converged {
		t.Fatal("delta solve did not converge")
	}
	if st2 == nil {
		t.Fatal("converged delta solve returned no next state")
	}
	if rep2.Solution.Stats.ReusedComponents == 0 {
		t.Fatal("adding one rule reused no components")
	}

	cold, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: k2, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Solution.X {
		if diff := math.Abs(rep2.Solution.X[i] - cold.Solution.X[i]); diff > 1e-6 {
			t.Fatalf("delta posterior deviates from cold at %d by %g", i, diff)
		}
	}
	if diff := math.Abs(rep2.EstimationAccuracy - cold.EstimationAccuracy); diff > 1e-6 {
		t.Fatalf("delta accuracy deviates from cold by %g", diff)
	}

	// Chaining a third variant off the second state stays consistent too.
	k3 := know(4, 4)
	rep3, _, err := p.QuantifyDelta(ctx, QuantifyOptions{Knowledge: k3, Truth: truth}, st2)
	if err != nil {
		t.Fatal(err)
	}
	cold3, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: k3, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold3.Solution.X {
		if diff := math.Abs(rep3.Solution.X[i] - cold3.Solution.X[i]); diff > 1e-6 {
			t.Fatalf("chained delta posterior deviates at %d by %g", i, diff)
		}
	}
}

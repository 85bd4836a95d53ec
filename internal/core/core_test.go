package core

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/individuals"
)

// prepare builds q's Prepared for d, failing the test on error.
func prepare(t *testing.T, q *Quantifier, d *bucket.Bucketized) *Prepared {
	t.Helper()
	p, err := q.Prepare(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigDefaults(t *testing.T) {
	q := New(Config{})
	cfg := q.Config()
	if cfg.Diversity != 5 || cfg.MinSupport != 3 {
		t.Fatalf("defaults = %+v", cfg)
	}
	custom := New(Config{Diversity: 3, MinSupport: 1}).Config()
	if custom.Diversity != 3 || custom.MinSupport != 1 {
		t.Fatalf("custom config overridden: %+v", custom)
	}
}

func TestQuantifyPaperExampleNoKnowledge(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, New(Config{}), d)
	rep, err := p.QuantifyWithOptions(context.Background(), QuantifyOptions{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EstimationAccuracy < 0 {
		t.Fatalf("accuracy = %g, want >= 0", rep.EstimationAccuracy)
	}
	if rep.MaxDisclosure <= 0 || rep.MaxDisclosure > 1+1e-9 {
		t.Fatalf("max disclosure = %g", rep.MaxDisclosure)
	}
	if rep.PosteriorEntropy <= 0 {
		t.Fatalf("posterior entropy = %g", rep.PosteriorEntropy)
	}
	// Without truth, accuracy is flagged -1.
	rep2, err := p.QuantifyWithOptions(context.Background(), QuantifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.EstimationAccuracy != -1 {
		t.Fatalf("no-truth accuracy = %g, want -1", rep2.EstimationAccuracy)
	}
}

// TestKnowledgeImprovesEstimation verifies the paper's central
// qualitative result: more background knowledge brings the adversary's
// estimate closer to the truth (Estimation Accuracy decreases) and raises
// disclosure risk.
func TestKnowledgeImprovesEstimation(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	q := New(Config{MinSupport: 1})
	rules, err := q.MineRulesContext(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, q, d)
	base, err := p.QuantifyWithRules(context.Background(), rules, Bound{}, truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	more, err := p.QuantifyWithRules(context.Background(), rules, Bound{KPos: 5, KNeg: 5}, truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if more.EstimationAccuracy >= base.EstimationAccuracy {
		t.Fatalf("accuracy with knowledge %g >= without %g", more.EstimationAccuracy, base.EstimationAccuracy)
	}
	if more.Bound != (Bound{KPos: 5, KNeg: 5}) {
		t.Fatalf("bound = %+v", more.Bound)
	}
	if more.PosteriorEntropy > base.PosteriorEntropy {
		t.Fatalf("entropy rose with knowledge: %g > %g", more.PosteriorEntropy, base.PosteriorEntropy)
	}
}

func TestRunEndToEndAdult(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 600, Seed: 21})
	q := New(Config{RuleSizes: []int{1}})
	rep, err := q.RunContext(context.Background(), tbl, Bound{KPos: 10, KNeg: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Knowledge) != 20 {
		t.Fatalf("applied knowledge = %d, want 20", len(rep.Knowledge))
	}
	if rep.Solution.Stats.MaxViolation > 1e-5 {
		t.Fatalf("violation = %g", rep.Solution.Stats.MaxViolation)
	}
	if rep.EstimationAccuracy < 0 || math.IsInf(rep.EstimationAccuracy, 0) {
		t.Fatalf("accuracy = %g", rep.EstimationAccuracy)
	}
	// Posterior rows are distributions.
	u := rep.Posterior.Universe()
	for qid := 0; qid < u.Len(); qid++ {
		var sum float64
		for s := 0; s < rep.Posterior.NumSA(); s++ {
			p := rep.Posterior.P(qid, s)
			if p < -1e-9 {
				t.Fatalf("negative posterior P(s%d|q%d) = %g", s, qid, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("posterior row %d sums to %g", qid, sum)
		}
	}
}

// TestDecompositionAblation checks the Sec. 5.5 claim on real pipeline
// runs: with sparse knowledge, decomposition solves a much smaller
// problem yet produces the same posterior.
func TestDecompositionAblation(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 33})
	qDec := New(Config{RuleSizes: []int{1}})
	qFull := New(Config{RuleSizes: []int{1}, NoDecompose: true})

	ctx := context.Background()
	d, _, err := qDec.BucketizeContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := qDec.MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	bound := Bound{KNeg: 3}
	repDec, err := prepare(t, qDec, d).QuantifyWithRules(ctx, rules, bound, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	repFull, err := prepare(t, qFull, d).QuantifyWithRules(ctx, rules, bound, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repDec.Solution.Stats.IrrelevantBuckets == 0 {
		t.Fatal("expected some irrelevant buckets with only 3 rules")
	}
	if repDec.Solution.Stats.ActiveVariables >= repFull.Solution.Stats.ActiveVariables &&
		repFull.Solution.Stats.ActiveVariables > 0 {
		t.Fatalf("decomposition did not shrink: %d vs %d",
			repDec.Solution.Stats.ActiveVariables, repFull.Solution.Stats.ActiveVariables)
	}
	u := d.Universe()
	for qid := 0; qid < u.Len(); qid++ {
		for s := 0; s < repDec.Posterior.NumSA(); s++ {
			if math.Abs(repDec.Posterior.P(qid, s)-repFull.Posterior.P(qid, s)) > 1e-5 {
				t.Fatalf("posteriors diverge at (q%d, s%d): %g vs %g",
					qid, s, repDec.Posterior.P(qid, s), repFull.Posterior.P(qid, s))
			}
		}
	}
}

func TestQuantifyRejectsBadKnowledge(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, New(Config{}), d)
	bad := []constraint.DistributionKnowledge{{Attrs: []int{99}, Values: []int{0}, SA: 0, P: 0.5}}
	for _, eps := range []float64{0, 0.1} {
		if _, err := p.QuantifyWithOptions(context.Background(), QuantifyOptions{Knowledge: bad, Eps: eps}); err == nil {
			t.Fatalf("eps %g: expected knowledge validation error", eps)
		}
	}
}

// TestQuantifyVague checks the Sec. 4.5 pipeline variant: with a large
// vagueness the boxes barely constrain (posterior near the no-knowledge
// one), and the vague report never assigns the adversary more certainty
// than the exact-knowledge report.
func TestQuantifyVague(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	q := New(Config{MinSupport: 1})
	ctx := context.Background()
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	var ks []constraint.DistributionKnowledge
	for _, r := range rules[:4] {
		ks = append(ks, r.Knowledge())
	}

	p := prepare(t, q, d)
	exact, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: ks, Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	vague, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: ks, Truth: truth, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: ks, Truth: truth, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	none, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	// Fully vague knowledge is no knowledge.
	if math.Abs(loose.EstimationAccuracy-none.EstimationAccuracy) > 1e-3 {
		t.Fatalf("eps=1 accuracy %g, no-knowledge %g", loose.EstimationAccuracy, none.EstimationAccuracy)
	}
	// Vagueness weakens the adversary relative to exact knowledge.
	if vague.EstimationAccuracy < exact.EstimationAccuracy-1e-6 {
		t.Fatalf("vague accuracy %g below exact %g", vague.EstimationAccuracy, exact.EstimationAccuracy)
	}
	if vague.Solution.Stats.MaxViolation > 1e-4 {
		t.Fatalf("violation %g", vague.Solution.Stats.MaxViolation)
	}
}

func TestQuantifyIndividuals(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	q := New(Config{})
	// No knowledge: exchangeable pseudonyms, moderate entropy.
	base, err := q.QuantifyIndividuals(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Space.NumPersons() != 10 {
		t.Fatalf("persons = %d, want 10", base.Space.NumPersons())
	}
	if base.MaxDisclosure <= 0 || base.MaxDisclosure > 1+1e-9 {
		t.Fatalf("disclosure = %g", base.MaxDisclosure)
	}
	// "James has Lung Cancer is impossible" plus "Helen (either q2
	// pseudonym) doesn't either" pins Iris.
	s5 := tbl.Schema().SA().MustCode("Lung Cancer")
	know := []individuals.Knowledge{
		individuals.ValueProbability{Person: individuals.Person{QID: 5}, SAs: []int{s5}, P: 0},
		individuals.ValueProbability{Person: individuals.Person{QID: 1, Index: 0}, SAs: []int{s5}, P: 0},
		individuals.ValueProbability{Person: individuals.Person{QID: 1, Index: 1}, SAs: []int{s5}, P: 0},
	}
	rep, err := q.QuantifyIndividuals(context.Background(), d, know)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDisclosure < 1-1e-6 {
		t.Fatalf("disclosure = %g, want 1 (Iris pinned)", rep.MaxDisclosure)
	}
	if rep.AverageEntropy >= base.AverageEntropy {
		t.Fatalf("entropy did not drop: %g vs %g", rep.AverageEntropy, base.AverageEntropy)
	}
}

func TestBreakingBound(t *testing.T) {
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	q := New(Config{MinSupport: 1})
	ctx := context.Background()
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Some modest threshold is crossed within the rule pool.
	k, rep, err := q.BreakingBound(ctx, d, rules, 0.75, 40)
	if err != nil {
		t.Fatal(err)
	}
	if k > 40 || rep == nil {
		t.Fatalf("expected a breaking bound within 40 rules, got k=%d", k)
	}
	if rep.MaxDisclosure < 0.75 {
		t.Fatalf("report disclosure %g below threshold", rep.MaxDisclosure)
	}
	if rep.Timings.Get(StagePrepare) <= 0 || rep.Timings[0].Stage != StagePrepare {
		t.Fatalf("report timings %v do not lead with the prepare stage", rep.Timings)
	}
	// One rule fewer stays below (first-crossing property on the
	// bisection lattice).
	if k > 1 {
		prev, err := prepare(t, q, d).QuantifyWithRules(ctx, rules, Bound{KPos: (k - 1) / 2, KNeg: (k - 1) - (k-1)/2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev.MaxDisclosure >= 0.75 {
			t.Fatalf("k-1 already crosses: %g", prev.MaxDisclosure)
		}
	}
	// Unreachable threshold: with no rules to draw from, disclosure stays
	// at the no-knowledge baseline regardless of K.
	k, rep, err = q.BreakingBound(ctx, d, nil, 0.999999, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 || rep != nil {
		t.Fatalf("unreachable threshold: k=%d rep=%v", k, rep)
	}
	// Validation.
	if _, _, err := q.BreakingBound(ctx, d, rules, 0, 10); err == nil {
		t.Fatal("expected tau validation error")
	}
	if _, _, err := q.BreakingBound(ctx, d, rules, 0.5, 0); err == nil {
		t.Fatal("expected maxK validation error")
	}
}

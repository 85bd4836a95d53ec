package privacymaxent

import (
	"bytes"
	"context"
	"math"
	"testing"

	"privacymaxent/internal/dataset"
)

// TestFacadeEndToEnd drives the whole library through the public surface
// only: build a table, publish it, mine rules, quantify, score.
func TestFacadeEndToEnd(t *testing.T) {
	gender := NewAttribute("Gender", QuasiIdentifier, []string{"male", "female"})
	zip := NewAttribute("Zip", QuasiIdentifier, []string{"13244", "13210", "13203"})
	disease := NewAttribute("Disease", Sensitive, []string{"Flu", "HIV", "Cancer", "Cold", "Asthma"})
	schema, err := NewSchema(gender, zip, disease)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(schema)
	diseases := disease.Domain
	for i := 0; i < 60; i++ {
		g := []string{"male", "female"}[i%2]
		z := zip.Domain[i%3]
		d := diseases[(i+i/5)%5]
		if err := tbl.Append(g, z, d); err != nil {
			t.Fatal(err)
		}
	}

	pub, _, err := Anatomize(tbl, BucketOptions{L: 3, ExemptMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rules, err := MineRulesContext(ctx, tbl, MineOptions{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueConditional(tbl, pub.Universe())
	if err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{Diversity: 3, MinSupport: 2}).Prepare(ctx, pub)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.QuantifyWithRules(ctx, rules, Bound{KPos: 5, KNeg: 5}, truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EstimationAccuracy < 0 {
		t.Fatalf("accuracy = %g", rep.EstimationAccuracy)
	}
	if d := MaxDisclosure(rep.Posterior); d <= 0 || d > 1+1e-9 {
		t.Fatalf("disclosure = %g", d)
	}
	acc, err := EstimationAccuracy(truth, rep.Posterior)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-rep.EstimationAccuracy) > 1e-12 {
		t.Fatalf("facade metric %g != report metric %g", acc, rep.EstimationAccuracy)
	}
}

func TestFacadeRunOnPaperExample(t *testing.T) {
	tbl := dataset.PaperExample()
	q := New(Config{Diversity: 3, MinSupport: 1})
	rep, err := q.RunContext(context.Background(), tbl, Bound{KNeg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bound.KNeg != 2 {
		t.Fatalf("bound = %+v", rep.Bound)
	}
	if len(rep.Knowledge) != 2 {
		t.Fatalf("knowledge = %d, want 2", len(rep.Knowledge))
	}
}

func TestTopKFacade(t *testing.T) {
	tbl := dataset.PaperExample()
	rules, err := MineRulesContext(context.Background(), tbl, MineOptions{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(rules, 1, 1)
	if len(top) != 2 {
		t.Fatalf("TopK = %d rules, want 2", len(top))
	}
}

// TestFacadeNewSubstrates exercises the generalization, randomization,
// worst-case and serialization entry points through the facade only.
func TestFacadeNewSubstrates(t *testing.T) {
	tbl := dataset.PaperExample()

	pub, classes, err := Generalize(tbl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pub.NumBuckets() != len(classes) || pub.N() != tbl.Len() {
		t.Fatalf("generalize shape: %d buckets, %d classes", pub.NumBuckets(), len(classes))
	}
	if tc := TCloseness(pub); tc < 0 || tc > 1 {
		t.Fatalf("TCloseness = %g", tc)
	}
	if p, err := WorstCaseDisclosureContext(context.Background(), pub, 0); err != nil || p <= 0 || p > 1 {
		t.Fatalf("WorstCaseDisclosure = %g, %v", p, err)
	}

	perturbed, mech, err := Randomize(tbl, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	post, err := RandomizedPosteriorContext(context.Background(), perturbed, mech, 0, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if post.NumSA() != tbl.Schema().SA().Cardinality() {
		t.Fatalf("posterior SA cardinality = %d", post.NumSA())
	}

	var buf bytes.Buffer
	if err := WritePublishedJSON(&buf, pub); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPublishedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != pub.N() {
		t.Fatalf("round trip N = %d, want %d", back.N(), pub.N())
	}

	buf.Reset()
	ks := []DistributionKnowledge{{
		Attrs:  []int{tbl.Schema().Index("Gender")},
		Values: []int{0},
		SA:     0,
		P:      0.25,
	}}
	if err := WriteKnowledgeJSON(&buf, tbl.Schema(), ks); err != nil {
		t.Fatal(err)
	}
	got, err := ParseKnowledgeJSON(&buf, tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].P != 0.25 {
		t.Fatalf("knowledge round trip = %+v", got)
	}
}

// External test package: these tests drive a Mondrian publication
// through internal/core, which (via internal/scheme) imports this
// package — an internal test file would be an import cycle.
package generalize_test

import (
	"context"
	"math/rand"
	"testing"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/generalize"
	"privacymaxent/internal/maxent"
)

func pipelineTable(rng *rand.Rand, rows int) *dataset.Table {
	sex := dataset.NewAttribute("Sex", dataset.QuasiIdentifier, []string{"m", "f"})
	age := dataset.NewAttribute("Age", dataset.QuasiIdentifier, []string{"20", "30", "40", "50", "60"})
	zip := dataset.NewAttribute("Zip", dataset.QuasiIdentifier, []string{"a", "b", "c"})
	diag := dataset.NewAttribute("D", dataset.Sensitive, []string{"d0", "d1", "d2", "d3"})
	t := dataset.NewTable(dataset.MustSchema(sex, age, zip, diag))
	for i := 0; i < rows; i++ {
		if err := t.AppendCoded([]int{rng.Intn(2), rng.Intn(5), rng.Intn(3), rng.Intn(4)}); err != nil {
			panic(err)
		}
	}
	return t
}

func TestPublishFeedsMaxEnt(t *testing.T) {
	// The headline property: a Mondrian generalization drops straight
	// into the Privacy-MaxEnt pipeline via its class-induced buckets.
	rng := rand.New(rand.NewSource(77))
	tbl := pipelineTable(rng, 120)
	d, classes, err := generalize.Publish(tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBuckets() != len(classes) {
		t.Fatalf("buckets = %d, classes = %d", d.NumBuckets(), len(classes))
	}
	sp := constraint.NewSpace(d)
	sys := constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	sol, err := maxent.SolveContext(context.Background(), sys, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.MaxViolation > 1e-7 {
		t.Fatalf("violation %g", sol.Stats.MaxViolation)
	}
	// And through the full Quantifier with mined knowledge.
	ctx := context.Background()
	q := core.New(core.Config{MinSupport: 2})
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.Prepare(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.QuantifyWithRules(ctx, rules, core.Bound{KPos: 5, KNeg: 5}, truth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EstimationAccuracy < 0 {
		t.Fatalf("accuracy = %g", rep.EstimationAccuracy)
	}
}

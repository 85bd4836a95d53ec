package privacymaxent_test

import (
	"context"
	"fmt"
	"log"

	"privacymaxent"
)

// buildPatientTable constructs a small medical microdata table.
func buildPatientTable() *privacymaxent.Table {
	gender := privacymaxent.NewAttribute("Gender", privacymaxent.QuasiIdentifier, []string{"male", "female"})
	age := privacymaxent.NewAttribute("Age", privacymaxent.QuasiIdentifier, []string{"young", "old"})
	disease := privacymaxent.NewAttribute("Disease", privacymaxent.Sensitive, []string{"Flu", "HIV", "Cancer"})
	schema, err := privacymaxent.NewSchema(gender, age, disease)
	if err != nil {
		log.Fatal(err)
	}
	t := privacymaxent.NewTable(schema)
	rows := [][3]string{
		{"male", "young", "Flu"}, {"male", "young", "Flu"}, {"male", "old", "HIV"},
		{"female", "young", "Cancer"}, {"female", "old", "Flu"}, {"female", "old", "HIV"},
		{"male", "old", "Cancer"}, {"female", "young", "Flu"}, {"male", "young", "HIV"},
		{"female", "old", "Cancer"}, {"male", "old", "Flu"}, {"female", "young", "HIV"},
	}
	for _, r := range rows {
		if err := t.Append(r[0], r[1], r[2]); err != nil {
			log.Fatal(err)
		}
	}
	return t
}

// Example runs the end-to-end pipeline: publish at 3-diversity, assume
// the adversary knows the Top-(2, 2) strongest association rules, and
// read the privacy scores.
func Example() {
	table := buildPatientTable()
	q := privacymaxent.New(privacymaxent.Config{Diversity: 3, MinSupport: 2})
	report, err := q.RunContext(context.Background(), table, privacymaxent.Bound{KPos: 2, KNeg: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge constraints applied: %d\n", len(report.Knowledge))
	fmt.Printf("constraints satisfied: %v\n", report.Solution.Stats.MaxViolation < 1e-5)
	fmt.Printf("estimation accuracy >= 0: %v\n", report.EstimationAccuracy >= 0)
	fmt.Printf("max disclosure <= 1: %v\n", report.MaxDisclosure <= 1.0000001)
	// Output:
	// knowledge constraints applied: 4
	// constraints satisfied: true
	// estimation accuracy >= 0: true
	// max disclosure <= 1: true
}

// ExamplePrepared_QuantifyWithOptions applies a hand-written knowledge
// statement — the paper's "it is rare for males to have breast cancer"
// pattern — instead of mined rules.
func ExamplePrepared_QuantifyWithOptions() {
	table := buildPatientTable()
	pub, _, err := privacymaxent.Anatomize(table, privacymaxent.BucketOptions{L: 3, ExemptMostFrequent: true})
	if err != nil {
		log.Fatal(err)
	}
	schema := table.Schema()
	genderAttr, _ := schema.AttrByName("Gender")
	male, _ := genderAttr.Code("male")
	cancer, _ := schema.SA().Code("Cancer")
	knowledge := []privacymaxent.DistributionKnowledge{{
		Attrs:  []int{schema.Index("Gender")},
		Values: []int{male},
		SA:     cancer,
		P:      0, // "males in this table never have Cancer" (counterfactual)
	}}
	ctx := context.Background()
	p, err := privacymaxent.New(privacymaxent.Config{Diversity: 3}).Prepare(ctx, pub)
	if err != nil {
		log.Fatal(err)
	}
	report, err := p.QuantifyWithOptions(ctx, privacymaxent.QuantifyOptions{Knowledge: knowledge})
	if err != nil {
		log.Fatal(err)
	}
	// Every male QI tuple now carries zero Cancer mass.
	u := report.Posterior.Universe()
	zeroed := true
	for qid := 0; qid < u.Len(); qid++ {
		if u.Codes(qid)[0] == male && report.Posterior.P(qid, cancer) > 1e-9 {
			zeroed = false
		}
	}
	fmt.Printf("male cancer posteriors zeroed: %v\n", zeroed)
	// Output:
	// male cancer posteriors zeroed: true
}

// ExampleMineRulesContext shows the Top-(K+, K−) bound construction of
// Sec. 4.4.
func ExampleMineRulesContext() {
	table := buildPatientTable()
	rules, err := privacymaxent.MineRulesContext(context.Background(), table, privacymaxent.MineOptions{MinSupport: 2})
	if err != nil {
		log.Fatal(err)
	}
	top := privacymaxent.TopK(rules, 1, 1)
	fmt.Printf("selected %d rules; strongest has confidence %.2f\n", len(top), top[0].Confidence)
	// Output:
	// selected 2 rules; strongest has confidence 1.00
}

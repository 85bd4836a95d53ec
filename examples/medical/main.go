// Medical is the intro's motivating scenario at a realistic (small
// hospital) scale: a synthetic patient table with demographic
// quasi-identifiers and a diagnosis column, published as 4-diverse
// buckets. The example sweeps the Top-(K+, K−) knowledge bound and prints
// the (bound, privacy score) pairs the paper argues a data publisher
// should look at before releasing — plus the per-diagnosis disclosure a
// "male patients don't get breast cancer" style rule causes.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/metrics"
)

func main() {
	tbl := generatePatients(600, 42)
	q := core.New(core.Config{Diversity: 4, MinSupport: 3})
	ctx := context.Background()

	pub, _, err := q.BucketizeContext(ctx, tbl)
	if err != nil {
		log.Fatal(err)
	}
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := dataset.TrueConditional(tbl, pub.Universe())
	if err != nil {
		log.Fatal(err)
	}
	p, err := q.Prepare(ctx, pub)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Patients: %d records, %d buckets (4-diversity), %d mined rules\n",
		tbl.Len(), pub.NumBuckets(), len(rules))
	fmt.Printf("Distinct diversity: %d, entropy diversity: %.2f\n\n",
		metrics.DistinctDiversity(pub), metrics.EntropyDiversity(pub))

	fmt.Println("Privacy as a function of the assumed knowledge bound (Sec. 4.3):")
	fmt.Println("  bound (K+,K-)   est. accuracy   max disclosure   posterior entropy")
	for _, k := range []int{0, 5, 10, 25, 50, 100, 200} {
		rep, err := p.QuantifyWithRules(ctx, rules, core.Bound{KPos: k / 2, KNeg: k - k/2}, truth, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  (%3d, %3d)      %-14.4f  %-15.3f  %.3f bits\n",
			rep.Bound.KPos, rep.Bound.KNeg, rep.EstimationAccuracy, rep.MaxDisclosure, rep.PosteriorEntropy)
	}

	// Zoom in on the patients a modest bound already exposes.
	rep, err := p.QuantifyWithRules(ctx, rules, core.Bound{KPos: 25, KNeg: 25}, truth, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPatients whose diagnosis an adversary with the Top-(25,25)")
	fmt.Println("bound pins with ≥ 70% confidence:")
	u := pub.Universe()
	sa := tbl.Schema().SA()
	exposed := 0
	for qid := 0; qid < u.Len() && exposed < 12; qid++ {
		for s := 0; s < rep.Posterior.NumSA(); s++ {
			if p := rep.Posterior.P(qid, s); p >= 0.7 {
				fmt.Printf("  %-34s => %-16s %.3f  (%d record(s))\n",
					u.Display(qid), sa.Value(s), p, u.Count(qid))
				exposed++
			}
		}
	}
	if exposed == 0 {
		fmt.Println("  none — the publication withstands this bound")
	}
}

// generatePatients builds a correlated synthetic patient table: diagnosis
// depends on age band and sex (breast cancer is female-dominated,
// prostate cancer male-only, flu young-skewed), so strong positive and
// negative rules exist for the mining step.
func generatePatients(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	sex := dataset.NewAttribute("Sex", dataset.QuasiIdentifier, []string{"male", "female"})
	age := dataset.NewAttribute("AgeBand", dataset.QuasiIdentifier, []string{"18-34", "35-49", "50-64", "65+"})
	zip := dataset.NewAttribute("Zip", dataset.QuasiIdentifier, []string{"13203", "13210", "13224", "13244"})
	diag := dataset.NewAttribute("Diagnosis", dataset.Sensitive, []string{
		"Flu", "Hypertension", "Diabetes", "Asthma", "Breast Cancer", "Prostate Cancer", "Pneumonia",
	})
	tbl := dataset.NewTable(dataset.MustSchema(sex, age, zip, diag))

	weights := func(sexV, ageV int) []float64 {
		w := []float64{30, 20, 15, 10, 4, 4, 8}
		if sexV == 0 { // male
			w[4] = 0.1 // breast cancer: rare
		} else {
			w[5] = 0 // prostate cancer: impossible
			w[4] = 8
		}
		switch ageV {
		case 0:
			w[0] *= 2
			w[1] *= 0.3
			w[2] *= 0.3
		case 2, 3:
			w[1] *= 2
			w[2] *= 1.8
			w[0] *= 0.5
		}
		return w
	}
	for i := 0; i < n; i++ {
		s := rng.Intn(2)
		a := rng.Intn(4)
		z := rng.Intn(4)
		d := sample(rng, weights(s, a))
		if err := tbl.AppendCoded([]int{s, a, z, d}); err != nil {
			panic(err)
		}
	}
	return tbl
}

func sample(rng *rand.Rand, w []float64) int {
	var total float64
	for _, v := range w {
		total += v
	}
	u := rng.Float64() * total
	for i, v := range w {
		u -= v
		if u < 0 {
			return i
		}
	}
	return len(w) - 1
}

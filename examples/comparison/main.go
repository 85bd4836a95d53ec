// Comparison publishes the same microdata with all three disguising
// methods the paper discusses — bucketization (Anatomy, the paper's
// focus), generalization (Mondrian k-anonymity, future-work direction 1)
// and randomization (randomized response, also direction 1) — quantifies
// each with Privacy-MaxEnt, and contrasts the probabilistic picture with
// the deterministic worst-case baseline of Martin et al. (Sec. 2).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/generalize"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
	"privacymaxent/internal/randomize"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/worstcase"
)

func main() {
	tbl := generateData(800, 17)
	truthU := dataset.NewUniverse(tbl)
	truth, err := dataset.TrueConditional(tbl, truthU)
	if err != nil {
		log.Fatal(err)
	}
	q := core.New(core.Config{Diversity: 4, MinSupport: 3})
	ctx := context.Background()
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		log.Fatal(err)
	}
	bound := core.Bound{KPos: 20, KNeg: 20}
	fmt.Printf("Same %d-record table, three disguising methods, adversary bound Top-(%d,%d):\n\n",
		tbl.Len(), bound.KPos, bound.KNeg)
	fmt.Println("method            est. accuracy   max disclosure   t-closeness   notes")

	// 1. Bucketization (Anatomy): QI exact, SA detached.
	anat, _, err := q.BucketizeContext(ctx, tbl)
	if err != nil {
		log.Fatal(err)
	}
	truthA, err := dataset.TrueConditional(tbl, anat.Universe())
	if err != nil {
		log.Fatal(err)
	}
	repA := quantify(ctx, q, anat, rules, bound, truthA)
	fmt.Printf("bucketization     %-14.4f  %-15.3f  %-12.3f  QI precision 1.000\n",
		repA.EstimationAccuracy, repA.MaxDisclosure, metrics.TCloseness(anat))

	// 2. Generalization (Mondrian): classes act as buckets for MaxEnt.
	gen, classes, err := generalize.Publish(tbl, 4)
	if err != nil {
		log.Fatal(err)
	}
	truthG, err := dataset.TrueConditional(tbl, gen.Universe())
	if err != nil {
		log.Fatal(err)
	}
	repG := quantify(ctx, q, gen, rules, bound, truthG)
	fmt.Printf("generalization    %-14.4f  %-15.3f  %-12.3f  QI precision %.3f\n",
		repG.EstimationAccuracy, repG.MaxDisclosure, metrics.TCloseness(gen),
		generalize.Precision(tbl, classes))

	// 3. Randomization (randomized response, rho = 0.6): SA perturbed,
	// reconstruction via the Sec. 4.5 inequality machinery.
	pub, mech, err := randomize.Perturb(tbl, 0.6, 5)
	if err != nil {
		log.Fatal(err)
	}
	est, _, err := randomize.EstimateContext(ctx, pub, mech, 3,
		maxent.Options{Solver: solver.Options{MaxIterations: 5000}})
	if err != nil {
		log.Fatal(err)
	}
	accR, err := metrics.EstimationAccuracy(remap(truth, est.Universe()), est)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("randomization     %-14.4f  %-15.3f  %-12s  rho=%.1f, SA values perturbed\n",
		accR, metrics.MaxDisclosure(est), "-", mech.Rho)

	// Per-stage cost of the Sec. 5.5 decomposition, from the report's own
	// timing breakdown (no external stopwatch needed).
	fmt.Println("\nPer-stage running time on the bucketization, decomposition on/off:")
	fmt.Println("decompose   prepare      select       formulate    solve        score        total")
	for _, noDecompose := range []bool{false, true} {
		qd := core.New(core.Config{Diversity: 4, MinSupport: 3, NoDecompose: noDecompose})
		tm := quantify(ctx, qd, anat, rules, bound, truthA).Timings
		fmt.Printf("%-10v  %-11v  %-11v  %-11v  %-11v  %-11v  %v\n", !noDecompose,
			tm.Get(core.StagePrepare).Round(time.Microsecond),
			tm.Get(core.StageSelect).Round(time.Microsecond),
			tm.Get(core.StageFormulate).Round(time.Microsecond),
			tm.Get(core.StageSolve).Round(time.Microsecond),
			tm.Get(core.StageScore).Round(time.Microsecond),
			tm.Total().Round(time.Microsecond))
	}

	// Worst-case deterministic baseline on the bucketized publication.
	fmt.Println("\nWorst-case (Martin et al. [19]) disclosure on the bucketization,")
	fmt.Println("as a function of the number of negative statements k:")
	curve, err := worstcase.Curve(anat, 4)
	if err != nil {
		log.Fatal(err)
	}
	for k, p := range curve {
		fmt.Printf("  k=%d: %.3f\n", k, p)
	}
	fmt.Printf("full disclosure after %d statements (BreakPoint)\n", worstcase.BreakPoint(anat))
	fmt.Println("\nThe deterministic bound saturates after a handful of facts and")
	fmt.Println("says nothing about probabilistic or aggregate knowledge — the")
	fmt.Println("expressiveness gap Privacy-MaxEnt closes (paper, Sec. 2).")
}

// quantify prepares d under q and applies the Top-K bound; the report's
// timings lead with the base build as the prepare stage.
func quantify(ctx context.Context, q *core.Quantifier, d *bucket.Bucketized, rules []assoc.Rule, bound core.Bound, truth *dataset.Conditional) *core.Report {
	start := time.Now()
	p, err := q.Prepare(ctx, d)
	if err != nil {
		log.Fatal(err)
	}
	prepDur := time.Since(start)
	rep, err := p.QuantifyWithRules(ctx, rules, bound, truth, nil)
	if err != nil {
		log.Fatal(err)
	}
	rep.Timings = append(core.Timings{{Stage: core.StagePrepare, Duration: prepDur}}, rep.Timings...)
	return rep
}

// remap rebuilds a conditional over the target universe by QI key.
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

// generateData builds a compact correlated census-style table.
func generateData(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	sex := dataset.NewAttribute("Sex", dataset.QuasiIdentifier, []string{"male", "female"})
	age := dataset.NewAttribute("Age", dataset.QuasiIdentifier, []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"})
	edu := dataset.NewAttribute("Edu", dataset.QuasiIdentifier, []string{"hs", "college", "graduate"})
	zip := dataset.NewAttribute("Zip", dataset.QuasiIdentifier, []string{"z0", "z1", "z2", "z3", "z4", "z5", "z6", "z7"})
	inc := dataset.NewAttribute("Income", dataset.Sensitive, []string{"<30k", "30-60k", "60-100k", ">100k", "none"})
	tbl := dataset.NewTable(dataset.MustSchema(sex, age, edu, zip, inc))
	for i := 0; i < n; i++ {
		s := rng.Intn(2)
		a := rng.Intn(6)
		e := rng.Intn(3)
		z := rng.Intn(8)
		w := []float64{3, 3, 2, 1, 1}
		// Income correlates with education and age.
		w[e+1] += 4
		if a <= 1 {
			w[0] += 2
			w[4] += 1
		}
		if a >= 4 && e == 2 {
			w[3] += 3
		}
		var total float64
		for _, v := range w {
			total += v
		}
		u := rng.Float64() * total
		inc := 0
		for j, v := range w {
			u -= v
			if u < 0 {
				inc = j
				break
			}
		}
		if err := tbl.AppendCoded([]int{s, a, e, z, inc}); err != nil {
			panic(err)
		}
	}
	return tbl
}

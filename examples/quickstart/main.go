// Quickstart walks the paper's running example (Figure 1) end to end:
// the 10-record medical table, its 3-bucket publication, the MaxEnt
// posterior with no background knowledge, and then the dramatic effect of
// the two Sec. 3.1 knowledge statements P(s1|q2) = 0 and
// P(s1 or s2|q3) = 0, which pin bucket 1's assignment exactly.
package main

import (
	"context"
	"fmt"
	"log"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
)

func main() {
	tbl := dataset.PaperExample()
	pub, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Published data D' (Figure 1(c) abstract form):")
	u := pub.Universe()
	sa := tbl.Schema().SA()
	for b := 0; b < pub.NumBuckets(); b++ {
		bk := pub.Bucket(b)
		fmt.Printf("  bucket %d: QI = [", b+1)
		for i, qid := range bk.QIDs() {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Print(u.Label(qid))
		}
		fmt.Print("]  SA = {")
		first := true
		for s := 0; s < pub.SACardinality(); s++ {
			for n := 0; n < bk.SACount(s); n++ {
				if !first {
					fmt.Print(", ")
				}
				fmt.Printf("s%d", s+1)
				first = false
			}
		}
		fmt.Println("}")
	}

	truth, err := dataset.TrueConditional(tbl, u)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	p, err := core.New(core.Config{Diversity: 3, MinSupport: 1}).Prepare(ctx, pub)
	if err != nil {
		log.Fatal(err)
	}

	// 1. No background knowledge: the standard uniform-within-bucket
	// estimate (Theorem 5).
	plain, err := p.QuantifyWithOptions(ctx, core.QuantifyOptions{Truth: truth})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWithout background knowledge:\n")
	fmt.Printf("  estimation accuracy: %.4f, max disclosure: %.3f\n",
		plain.EstimationAccuracy, plain.MaxDisclosure)
	printPosterior(pub, sa, plain)

	// 2. The Sec. 3.1 knowledge: P(s1|q2) = 0 and P(s1 or s2|q3) = 0.
	s1 := sa.MustCode("Breast Cancer")
	s2 := sa.MustCode("Flu")
	know := []constraint.DistributionKnowledge{
		tupleKnowledge(tbl, u, 1, s1, 0), // P(s1 | q2) = 0
		tupleKnowledge(tbl, u, 2, s1, 0), // P(s1 | q3) = 0
		tupleKnowledge(tbl, u, 2, s2, 0), // P(s2 | q3) = 0
	}
	withK, err := p.QuantifyWithOptions(ctx, core.QuantifyOptions{Knowledge: know, Truth: truth})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nWith P(s1|q2)=0 and P(s1 or s2|q3)=0 (Sec. 3.1):\n")
	fmt.Printf("  estimation accuracy: %.4f, max disclosure: %.3f\n",
		withK.EstimationAccuracy, withK.MaxDisclosure)
	fmt.Printf("  presolve alone fixed %d of %d probability terms\n",
		withK.Solution.Stats.FixedVariables,
		withK.Solution.Stats.FixedVariables+withK.Solution.Stats.ActiveVariables)
	printPosterior(pub, sa, withK)
	fmt.Println("\nNote how bucket 1 is fully resolved: q3 must map to s3,")
	fmt.Println("q2 must map to s2, and the two q1 records split s1 and s2.")
	fmt.Println("\nThe estimation-accuracy metric *rose* here because this")
	fmt.Println("hypothetical knowledge contradicts the original data (in D,")
	fmt.Println("q3 does carry s2) — exactly Sec. 4.2's observation that")
	fmt.Println("knowledge inconsistent with D misleads the adversary. The")
	fmt.Println("evaluation figures always mine their knowledge from D itself.")
}

// tupleKnowledge pins P(sa | full QI tuple of qid) = p.
func tupleKnowledge(tbl *dataset.Table, u *dataset.Universe, qid, sa int, p float64) constraint.DistributionKnowledge {
	return constraint.DistributionKnowledge{
		Attrs:  append([]int(nil), tbl.Schema().QIIndices()...),
		Values: append([]int(nil), u.Codes(qid)...),
		SA:     sa,
		P:      p,
	}
}

func printPosterior(pub *bucket.Bucketized, sa *dataset.Attribute, rep *core.Report) {
	u := pub.Universe()
	fmt.Println("  posterior P(S | Q):")
	for qid := 0; qid < u.Len(); qid++ {
		fmt.Printf("    %s %-22s", u.Label(qid), u.Display(qid))
		for s := 0; s < rep.Posterior.NumSA(); s++ {
			if p := rep.Posterior.P(qid, s); p > 1e-9 {
				fmt.Printf("  s%d:%.3f", s+1, p)
			}
		}
		fmt.Println()
	}
}

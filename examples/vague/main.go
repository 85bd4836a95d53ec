// Vague demonstrates the Sec. 4.5 extension: background knowledge that is
// only approximately known. "P(Pneumonia | male, high school) is about
// 0.9" enters the MaxEnt problem as the ε-box [0.9−ε, 0.9+ε] instead of
// an equality, and the example sweeps ε to show how vagueness returns
// privacy to the individuals the exact statement would expose.
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
	truth, err := dataset.TrueConditional(tbl, pub.Universe())
	if err != nil {
		log.Fatal(err)
	}
	schema := tbl.Schema()
	gender := schema.Index("Gender")
	degree := schema.Index("Degree")
	know := []constraint.DistributionKnowledge{{
		Attrs: []int{gender, degree},
		Values: []int{
			schema.Attr(gender).MustCode("male"),
			schema.Attr(degree).MustCode("high school"),
		},
		SA: schema.SA().MustCode("Pneumonia"),
		P:  0.9,
	}}

	ctx := context.Background()
	p, err := core.New(core.Config{Diversity: 3, MinSupport: 1}).Prepare(ctx, pub)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(`Knowledge: "P(Pneumonia | male, high school) ≈ 0.9 ± ε"`)
	fmt.Println("(the exact value in D is 0.5 — the adversary's belief overshoots)")
	fmt.Println()
	fmt.Println("  ε       est. accuracy   max disclosure   P*(Pneumonia | q3)")
	q3 := findQID(pub, "{male, high school}")
	s3 := schema.SA().MustCode("Pneumonia")
	for _, eps := range []float64{0, 0.05, 0.1, 0.2, 0.4, 1} {
		rep, err := p.QuantifyWithOptions(ctx, core.QuantifyOptions{Knowledge: know, Truth: truth, Eps: eps})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6.2f  %-14.4f  %-15.3f  %.3f\n",
			eps, rep.EstimationAccuracy, rep.MaxDisclosure, rep.Posterior.P(q3, s3))
	}
	fmt.Println()
	fmt.Println("At ε = 0 the box is the exact (overconfident) statement; as ε")
	fmt.Println("grows the maximum-entropy solution relaxes back toward the")
	fmt.Println("no-knowledge posterior (ε = 1 constrains nothing). Vagueness is")
	fmt.Println("the knob the paper proposes for bounding *how well* adversaries")
	fmt.Println("know, not just how much.")
}

func findQID(pub *bucket.Bucketized, display string) int {
	u := pub.Universe()
	for qid := 0; qid < u.Len(); qid++ {
		if u.Display(qid) == display {
			return qid
		}
	}
	log.Fatalf("QI tuple %s not found", display)
	return -1
}

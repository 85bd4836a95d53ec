// Individuals demonstrates the paper's Section 6: background knowledge
// about specific people, modeled over the pseudonym-expanded published
// data of Figure 4. It replays all three knowledge forms from the paper's
// catalogue and shows how each reshapes the per-person posteriors.
package main

import (
	"context"
	"fmt"
	"log"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/individuals"
	"privacymaxent/internal/maxent"
)

func main() {
	tbl := dataset.PaperExample()
	pub, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		log.Fatal(err)
	}
	sp := individuals.NewSpace(pub)
	sa := tbl.Schema().SA()

	fmt.Println("Pseudonym-expanded publication (Figure 4):")
	u := pub.Universe()
	for qid := 0; qid < u.Len(); qid++ {
		persons := sp.PersonsWithQID(qid)
		fmt.Printf("  %s %-22s pseudonyms {", u.Label(qid), u.Display(qid))
		for i, p := range persons {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("i%d", p+1)
		}
		fmt.Println("}")
	}

	solveAndShow := func(title string, persons []individuals.Person, know []individuals.Knowledge) {
		fmt.Printf("\n%s\n", title)
		sol, err := individuals.Solve(context.Background(), sp, know, maxent.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range persons {
			id, err := sp.PersonID(p)
			if err != nil {
				log.Fatal(err)
			}
			post := sol.PersonPosterior(id)
			fmt.Printf("  i%-3d (%s)  ", id+1, u.Display(p.QID))
			for s, v := range post {
				if v > 1e-6 {
					fmt.Printf("%s:%.3f  ", sa.Value(s), v)
				}
			}
			fmt.Println()
		}
	}

	s1 := sa.MustCode("Breast Cancer")
	s4 := sa.MustCode("HIV")
	alice := individuals.Person{QID: 0, Index: 0}   // a q1 occurrence
	bob := individuals.Person{QID: 1, Index: 0}     // a q2 occurrence
	charlie := individuals.Person{QID: 4, Index: 0} // the unique q5 record

	solveAndShow("No individual knowledge (pseudonyms are exchangeable):",
		[]individuals.Person{alice, bob, charlie}, nil)

	// Form 1: "the probability that Alice (q1) has Breast Cancer is 0.2".
	solveAndShow(`Form 1 — "P(Breast Cancer | Alice) = 0.2":`,
		[]individuals.Person{alice},
		[]individuals.Knowledge{individuals.ValueProbability{Person: alice, SAs: []int{s1}, P: 0.2}})

	// Form 2: "Alice has either Breast Cancer or HIV".
	solveAndShow(`Form 2 — "Alice has either Breast Cancer or HIV":`,
		[]individuals.Person{alice},
		[]individuals.Knowledge{individuals.ValueProbability{Person: alice, SAs: []int{s1, s4}, P: 1}})

	// Form 3: "two people among Alice, Bob and Charlie have HIV".
	solveAndShow(`Form 3 — "two among Alice, Bob, Charlie have HIV":`,
		[]individuals.Person{alice, bob, charlie},
		[]individuals.Knowledge{individuals.GroupCount{
			Persons: []individuals.Person{alice, bob, charlie}, SA: s4, Count: 2,
		}})

	fmt.Println("\nEach statement is one linear ME constraint over the")
	fmt.Println("pseudonym terms P(i, Q, S, B); solving maximum entropy under")
	fmt.Println("it yields the least-biased per-person posteriors above.")
}

package individuals

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/solver"
)

// paperPSpace builds the pseudonym space of the running example
// (Figure 4: q1 carries pseudonyms {i1,i2,i3}, q4 carries {i8}, ...).
func paperPSpace(t *testing.T) (*dataset.Table, *bucket.Bucketized, *Space) {
	t.Helper()
	tbl := dataset.PaperExample()
	d, err := bucket.FromPartition(tbl, dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	return tbl, d, NewSpace(d)
}

func TestSpaceShape(t *testing.T) {
	_, d, sp := paperPSpace(t)
	if got := sp.NumPersons(); got != 10 {
		t.Fatalf("persons = %d, want 10", got)
	}
	// Per bucket: (Σ pseudonyms of bucket's QI values) × (distinct SAs).
	// Bucket 1: (3+2+2)*3 = 21; bucket 2: (3+2+1)*3 = 18;
	// bucket 3: (2+1+1)*3 = 12.
	if got := sp.Len(); got != 51 {
		t.Fatalf("terms = %d, want 51", got)
	}
	// q1 has three pseudonyms.
	if got := len(sp.PersonsWithQID(0)); got != 3 {
		t.Fatalf("pseudonyms of q1 = %d, want 3", got)
	}
	// Unique QI values have a single pseudonym (q4 = Grace).
	if got := len(sp.PersonsWithQID(3)); got != 1 {
		t.Fatalf("pseudonyms of q4 = %d, want 1", got)
	}
	// PersonID round-trips.
	id, err := sp.PersonID(Person{QID: 0, Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Person(id) != (Person{QID: 0, Index: 2}) {
		t.Fatalf("PersonID round trip failed")
	}
	if _, err := sp.PersonID(Person{QID: 0, Index: 5}); err == nil {
		t.Fatal("expected out-of-range pseudonym error")
	}
	if _, err := sp.PersonID(Person{QID: 99}); err == nil {
		t.Fatal("expected out-of-range qid error")
	}
	_ = d
}

func TestUniformInitSatisfiesInvariants(t *testing.T) {
	_, _, sp := paperPSpace(t)
	x := sp.UniformInit()
	for _, c := range sp.Invariants() {
		if r := math.Abs(c.Residual(x)); r > 1e-12 {
			t.Fatalf("%s violated by %g at uniform init", c.Label, r)
		}
	}
}

func TestSolveNoKnowledgeMatchesBaseModel(t *testing.T) {
	_, d, sp := paperPSpace(t)
	sol, err := Solve(context.Background(), sp, nil, maxent.Options{Solver: solver.Options{GradTol: 1e-11}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.MaxViolation > 1e-7 {
		t.Fatalf("violation %g", sol.Stats.MaxViolation)
	}
	// Aggregating pseudonyms recovers the base model's closed form.
	base := maxent.Uniform(constraint.NewSpace(d))
	baseSp := constraint.NewSpace(d)
	for i := 0; i < baseSp.Len(); i++ {
		tm := baseSp.Term(i)
		if got := sol.Aggregate(tm.QID, tm.SA, tm.Bucket); math.Abs(got-base[i]) > 1e-6 {
			t.Fatalf("aggregate P(q%d,s%d,%d) = %g, want %g", tm.QID+1, tm.SA+1, tm.Bucket+1, got, base[i])
		}
	}
	// Pseudonyms of the same QI value are exchangeable: identical
	// posteriors.
	p0 := sol.PersonPosterior(sp.PersonsWithQID(0)[0])
	p1 := sol.PersonPosterior(sp.PersonsWithQID(0)[1])
	for s := range p0 {
		if math.Abs(p0[s]-p1[s]) > 1e-7 {
			t.Fatalf("pseudonym posteriors differ at s%d: %g vs %g", s+1, p0[s], p1[s])
		}
	}
	// Posteriors are distributions.
	for person := 0; person < sp.NumPersons(); person++ {
		var sum float64
		for _, p := range sol.PersonPosterior(person) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-7 {
			t.Fatalf("person %d posterior sums to %g", person, sum)
		}
	}
}

// TestForm1PaperExample replays Sec. 6 form (1): "the probability that
// Alice (q1) has Breast Cancer (s1) is 0.2" becomes
// P(i1,q1,s1,1) + P(i1,q1,s1,2) = 0.2/N.
func TestForm1PaperExample(t *testing.T) {
	tbl, _, sp := paperPSpace(t)
	s1 := tbl.Schema().SA().MustCode("Breast Cancer")
	k := ValueProbability{Person: Person{QID: 0, Index: 0}, SAs: []int{s1}, P: 0.2}
	c, err := k.Constraint(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) != 2 {
		t.Fatalf("terms = %d, want 2 (buckets 1 and 2)", len(c.Terms))
	}
	if math.Abs(c.RHS-0.02) > 1e-15 {
		t.Fatalf("RHS = %g, want 0.2/10", c.RHS)
	}
	sol, err := Solve(context.Background(), sp, []Knowledge{k}, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := sp.PersonID(k.Person)
	post := sol.PersonPosterior(alice)
	if math.Abs(post[s1]-0.2) > 1e-6 {
		t.Fatalf("P(s1 | Alice) = %g, want 0.2", post[s1])
	}
}

// TestForm2PaperExample replays form (2): "Alice (q1) has either Breast
// Cancer (s1) or HIV (s4)", i.e. P(i1,q1,s1,1)+P(i1,q1,s1,2)+P(i1,q1,s4,2)
// = 1/N.
func TestForm2PaperExample(t *testing.T) {
	tbl, _, sp := paperPSpace(t)
	s1 := tbl.Schema().SA().MustCode("Breast Cancer")
	s4 := tbl.Schema().SA().MustCode("HIV")
	k := ValueProbability{Person: Person{QID: 0, Index: 0}, SAs: []int{s1, s4}, P: 1}
	c, err := k.Constraint(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) != 3 {
		t.Fatalf("terms = %d, want 3", len(c.Terms))
	}
	if math.Abs(c.RHS-0.1) > 1e-15 {
		t.Fatalf("RHS = %g, want 1/10", c.RHS)
	}
	sol, err := Solve(context.Background(), sp, []Knowledge{k}, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := sp.PersonID(k.Person)
	post := sol.PersonPosterior(alice)
	if math.Abs(post[s1]+post[s4]-1) > 1e-6 {
		t.Fatalf("P(s1)+P(s4) = %g, want 1", post[s1]+post[s4])
	}
	flu := tbl.Schema().SA().MustCode("Flu")
	if post[flu] > 1e-6 {
		t.Fatalf("P(Flu | Alice) = %g, want 0", post[flu])
	}
}

// TestForm3PaperExample replays form (3): "two people among Alice (q1),
// Bob (q2) and Charlie (q5) have HIV (s4)" becomes
// P(i1,q1,s4,2) + P(i4,q2,s4,3) + P(i9,q5,s4,3) = 2/N.
func TestForm3PaperExample(t *testing.T) {
	tbl, _, sp := paperPSpace(t)
	s4 := tbl.Schema().SA().MustCode("HIV")
	group := []Person{{QID: 0, Index: 0}, {QID: 1, Index: 0}, {QID: 4, Index: 0}}
	k := GroupCount{Persons: group, SA: s4, Count: 2}
	c, err := k.Constraint(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Terms) != 3 {
		t.Fatalf("terms = %d, want 3 (paper's exact constraint)", len(c.Terms))
	}
	if math.Abs(c.RHS-0.2) > 1e-15 {
		t.Fatalf("RHS = %g, want 2/10", c.RHS)
	}
	sol, err := Solve(context.Background(), sp, []Knowledge{k}, maxent.Options{Solver: solver.Options{MaxIterations: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range group {
		id, _ := sp.PersonID(p)
		total += sol.PersonPosterior(id)[s4]
	}
	if math.Abs(total-2) > 1e-5 {
		t.Fatalf("expected HIV count = %g, want 2", total)
	}
}

// TestNegativeIndividualKnowledge: "Helen (q2, second occurrence) does
// not have HIV" zeroes her HIV posterior and pushes the bucket-3 HIV mass
// to the other bucket-3 residents.
func TestNegativeIndividualKnowledge(t *testing.T) {
	tbl, _, sp := paperPSpace(t)
	s4 := tbl.Schema().SA().MustCode("HIV")
	helen := Person{QID: 1, Index: 1}
	k := ValueProbability{Person: helen, SAs: []int{s4}, P: 0}
	sol, err := Solve(context.Background(), sp, []Knowledge{k}, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := sp.PersonID(helen)
	if got := sol.PersonPosterior(id)[s4]; got > 1e-9 {
		t.Fatalf("P(HIV | Helen) = %g, want 0", got)
	}
	// Mass conservation: aggregate SA invariants still hold.
	d := sp.Data()
	for b := 0; b < d.NumBuckets(); b++ {
		for _, s := range d.Bucket(b).DistinctSAs() {
			var sum float64
			for _, q := range d.Bucket(b).DistinctQIDs() {
				sum += sol.Aggregate(q, s, b)
			}
			if math.Abs(sum-d.PSB(s, b)) > 1e-6 {
				t.Fatalf("SA mass (s%d, b%d) = %g, want %g", s+1, b+1, sum, d.PSB(s, b))
			}
		}
	}
}

func TestKnowledgeValidationErrors(t *testing.T) {
	_, _, sp := paperPSpace(t)
	cases := []Knowledge{
		ValueProbability{Person: Person{QID: 0}, SAs: nil, P: 0.5},
		ValueProbability{Person: Person{QID: 0}, SAs: []int{0}, P: 1.5},
		ValueProbability{Person: Person{QID: 99}, SAs: []int{0}, P: 0.5},
		ValueProbability{Person: Person{QID: 0}, SAs: []int{99}, P: 0.5},
		ValueProbability{Person: Person{QID: 0}, SAs: []int{0, 0}, P: 0.5},
		GroupCount{Persons: nil, SA: 0, Count: 1},
		GroupCount{Persons: []Person{{QID: 0}}, SA: 99, Count: 1},
		GroupCount{Persons: []Person{{QID: 0}}, SA: 0, Count: 2},
		GroupCount{Persons: []Person{{QID: 0}, {QID: 0}}, SA: 0, Count: 1},
	}
	for i, k := range cases {
		if _, err := k.Constraint(sp); err == nil {
			t.Errorf("case %d: expected error", i)
		}
		if _, err := Solve(context.Background(), sp, []Knowledge{k}, maxent.Options{}); err == nil {
			t.Errorf("case %d: Solve should propagate the error", i)
		}
	}
}

// TestIrisLungCancerCertainty: Iris (q5) is the only bucket-3 resident
// who can have Lung Cancer once we know James (q6) and Helen (q2) do not.
func TestIrisLungCancerCertainty(t *testing.T) {
	tbl, _, sp := paperPSpace(t)
	s5 := tbl.Schema().SA().MustCode("Lung Cancer")
	ks := []Knowledge{
		ValueProbability{Person: Person{QID: 5, Index: 0}, SAs: []int{s5}, P: 0}, // James
		ValueProbability{Person: Person{QID: 1, Index: 0}, SAs: []int{s5}, P: 0}, // first q2 pseudonym
		ValueProbability{Person: Person{QID: 1, Index: 1}, SAs: []int{s5}, P: 0}, // second q2 pseudonym
	}
	sol, err := Solve(context.Background(), sp, ks, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iris, _ := sp.PersonID(Person{QID: 4, Index: 0})
	if got := sol.PersonPosterior(iris)[s5]; math.Abs(got-1) > 1e-6 {
		t.Fatalf("P(LungCancer | Iris) = %g, want 1", got)
	}
}

// Package individuals implements the paper's Section 6: integrating
// background knowledge about specific people. Because a QI value may be
// shared by several records, the published table is expanded with
// pseudonyms (Figure 4): every occurrence of a QI value q is associated
// with the same set of pseudonyms {i_1, ..., i_k}, one per record with
// that QI value, reflecting that the adversary knows a target is *one of*
// those occurrences without knowing which.
//
// The model's variables are the probability terms P(i, Q, S, B). Base
// invariants (the pseudonym analogues of Sec. 5's, whose derivation the
// paper sketches and omits):
//
//   - person-invariant: Σ_{s,b} P(i, q_i, s, b) = 1/N for every pseudonym
//     i (each person has exactly one record);
//   - QI-slot invariant: Σ_{i,s} P(i, q, s, b) = P(q, b) for every QI
//     value q and bucket b containing it;
//   - SA-invariant: Σ_{i,q} P(i, q, s, b) = P(s, b) for every SA value s
//     and bucket b containing it;
//   - zero-invariants, structural as before: terms exist only when q and
//     s both occur in b.
//
// Summing the solution over pseudonyms recovers the base model's
// P(Q, S, B), so the two models agree when no individual knowledge is
// present.
package individuals

import (
	"context"
	"fmt"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/maxent"
)

// Term is a pseudonymized probability term P(i, q, s, b). Person is a
// dense global pseudonym id (see Space.Person for the (qid, index) view).
type Term struct {
	Person int
	QID    int
	SA     int
	Bucket int
}

// Person identifies a pseudonym as the Index-th occurrence of the QI
// value QID (Index ranges over [0, count(q))). In Figure 4's example,
// {i1, i2, i3} are (q1, 0), (q1, 1), (q1, 2).
type Person struct {
	QID   int
	Index int
}

// Space enumerates the pseudonym-expanded probability terms of a
// published data set and assigns dense indices.
type Space struct {
	data *bucket.Bucketized

	persons  []Person // person id -> (qid, index)
	byQID    [][]int  // qid -> person ids
	terms    []Term
	index    map[Term]int
	byPerson [][]int // person id -> term ids
}

// NewSpace expands the published data with pseudonyms. One pseudonym is
// created per record; a pseudonym with QI value q may occupy any
// occurrence of q in any bucket.
func NewSpace(d *bucket.Bucketized) *Space {
	u := d.Universe()
	sp := &Space{
		data:  d,
		byQID: make([][]int, u.Len()),
		index: make(map[Term]int),
	}
	for qid := 0; qid < u.Len(); qid++ {
		for k := 0; k < u.Count(qid); k++ {
			id := len(sp.persons)
			sp.persons = append(sp.persons, Person{QID: qid, Index: k})
			sp.byQID[qid] = append(sp.byQID[qid], id)
		}
	}
	sp.byPerson = make([][]int, len(sp.persons))
	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		for _, qid := range bk.DistinctQIDs() {
			for _, person := range sp.byQID[qid] {
				for _, s := range bk.DistinctSAs() {
					t := Term{Person: person, QID: qid, SA: s, Bucket: b}
					id := len(sp.terms)
					sp.index[t] = id
					sp.terms = append(sp.terms, t)
					sp.byPerson[person] = append(sp.byPerson[person], id)
				}
			}
		}
	}
	return sp
}

// Data returns the published data set.
func (sp *Space) Data() *bucket.Bucketized { return sp.data }

// Len reports the number of probability terms.
func (sp *Space) Len() int { return len(sp.terms) }

// NumPersons reports the number of pseudonyms (= records, N).
func (sp *Space) NumPersons() int { return len(sp.persons) }

// Person returns the (qid, index) identity of a person id.
func (sp *Space) Person(id int) Person { return sp.persons[id] }

// PersonID resolves a (qid, index) pseudonym to its dense id.
func (sp *Space) PersonID(p Person) (int, error) {
	if p.QID < 0 || p.QID >= len(sp.byQID) {
		return 0, fmt.Errorf("individuals: qid %d out of range", p.QID)
	}
	ids := sp.byQID[p.QID]
	if p.Index < 0 || p.Index >= len(ids) {
		return 0, fmt.Errorf("individuals: pseudonym index %d out of range for q%d (%d occurrences)", p.Index, p.QID+1, len(ids))
	}
	return ids[p.Index], nil
}

// PersonsWithQID returns the pseudonym ids attached to a QI value.
func (sp *Space) PersonsWithQID(qid int) []int { return sp.byQID[qid] }

// Term returns the term with dense index i.
func (sp *Space) Term(i int) Term { return sp.terms[i] }

// Index maps a term to its dense index; ok is false for structural zeros.
func (sp *Space) Index(t Term) (int, bool) {
	i, ok := sp.index[t]
	return i, ok
}

// TermsOfPerson returns the dense indices of a person's terms.
func (sp *Space) TermsOfPerson(person int) []int { return sp.byPerson[person] }

// Invariants builds the base invariant equations of the pseudonym model.
func (sp *Space) Invariants() []constraint.Constraint {
	d := sp.data
	n := float64(d.N())
	var cons []constraint.Constraint

	// Person-invariants: each person's terms sum to 1/N. They play the
	// QI-invariant role structurally (each variable appears in exactly
	// one), which also lets GIS recover total mass.
	for person := range sp.persons {
		terms := sp.byPerson[person]
		cons = append(cons, constraint.Constraint{
			Kind:   constraint.QIInvariant,
			Label:  fmt.Sprintf("person i%d", person+1),
			Terms:  append([]int(nil), terms...),
			Coeffs: ones(len(terms)),
			RHS:    1 / n,
		})
	}

	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		qids := bk.DistinctQIDs()
		sas := bk.DistinctSAs()
		// QI-slot invariants: the q-records of bucket b carry mass
		// P(q,b), distributed among q's pseudonyms and b's SA values.
		for _, qid := range qids {
			var terms []int
			for _, person := range sp.byQID[qid] {
				for _, s := range sas {
					id, ok := sp.index[Term{Person: person, QID: qid, SA: s, Bucket: b}]
					if !ok {
						panic("individuals: bucket term missing from space")
					}
					terms = append(terms, id)
				}
			}
			cons = append(cons, constraint.Constraint{
				Kind:   constraint.SAInvariant, // secondary invariant family
				Label:  fmt.Sprintf("slot q%d b%d", qid+1, b+1),
				Terms:  terms,
				Coeffs: ones(len(terms)),
				RHS:    d.PQB(qid, b),
			})
		}
		// SA-invariants.
		for _, s := range sas {
			var terms []int
			for _, qid := range qids {
				for _, person := range sp.byQID[qid] {
					id, ok := sp.index[Term{Person: person, QID: qid, SA: s, Bucket: b}]
					if !ok {
						panic("individuals: bucket term missing from space")
					}
					terms = append(terms, id)
				}
			}
			cons = append(cons, constraint.Constraint{
				Kind:   constraint.SAInvariant,
				Label:  fmt.Sprintf("SA s%d b%d", s+1, b+1),
				Terms:  terms,
				Coeffs: ones(len(terms)),
				RHS:    d.PSB(s, b),
			})
		}
	}
	return cons
}

// UniformInit returns the symmetric starting point: the base model's
// closed-form P(q,s,b) split equally among q's pseudonyms. Variables
// never touched by constraints would keep this value, and it is the exact
// MaxEnt solution when no individual knowledge is present.
func (sp *Space) UniformInit() []float64 {
	d := sp.data
	x := make([]float64, len(sp.terms))
	for i, t := range sp.terms {
		pb := d.PB(t.Bucket)
		if pb == 0 {
			continue
		}
		share := float64(len(sp.byQID[t.QID]))
		x[i] = d.PQB(t.QID, t.Bucket) * d.PSB(t.SA, t.Bucket) / pb / share
	}
	return x
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Solution is a maximum-entropy assignment of pseudonym terms.
type Solution struct {
	space *Space
	// X holds P(i, Q, S, B) for every term.
	X []float64
	// Stats reports the underlying solve.
	Stats maxent.Stats
}

// Space returns the term space.
func (s *Solution) Space() *Space { return s.space }

// PersonPosterior returns P(S = s | person) for every SA code: the
// person's sensitive-value distribution under the model, obtained as
// N · Σ_b P(i, q_i, s, b).
func (s *Solution) PersonPosterior(person int) []float64 {
	d := s.space.Data()
	out := make([]float64, d.SACardinality())
	for _, id := range s.space.TermsOfPerson(person) {
		out[s.space.Term(id).SA] += s.X[id]
	}
	n := float64(d.N())
	for i := range out {
		out[i] *= n
	}
	return out
}

// Aggregate folds pseudonyms away, returning the base-model joint
// P(q, s, b) for a term of the standard space.
func (s *Solution) Aggregate(qid, sa, b int) float64 {
	var sum float64
	for _, person := range s.space.PersonsWithQID(qid) {
		if id, ok := s.space.Index(Term{Person: person, QID: qid, SA: sa, Bucket: b}); ok {
			sum += s.X[id]
		}
	}
	return sum
}

// Solve computes the pseudonym-model MaxEnt distribution under the given
// individual-knowledge statements. Canceling ctx stops the solve with an
// error wrapping solver.ErrInterrupted.
func Solve(ctx context.Context, sp *Space, knowledge []Knowledge, opts maxent.Options) (*Solution, error) {
	cons := sp.Invariants()
	for i, k := range knowledge {
		c, err := k.Constraint(sp)
		if err != nil {
			return nil, fmt.Errorf("individuals: knowledge %d: %w", i, err)
		}
		cons = append(cons, c)
	}
	x, stats, err := maxent.SolveConstraintsContext(ctx, sp.Len(), cons, sp.UniformInit(), opts)
	if err != nil {
		return nil, err
	}
	return &Solution{space: sp, X: x, Stats: stats}, nil
}

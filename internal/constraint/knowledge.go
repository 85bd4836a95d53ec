package constraint

import (
	"fmt"
	"sort"
	"strings"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

// DistributionKnowledge is background knowledge about the data
// distribution (Sec. 4.1): a conditional probability P(S = sa | Qv) = P
// where Qv fixes the values of a subset of the QI attributes. The breast
// cancer example is P(Breast Cancer | Male) = 0; association rules mined
// from the original data give P equal to the rule confidence.
type DistributionKnowledge struct {
	// Attrs holds schema positions of the conditioned QI attributes and
	// Values their required codes; parallel slices, at least one entry.
	Attrs  []int
	Values []int
	// Negated flips the condition to ¬Qv: the statement becomes
	// P(SA | ¬Qv) = P, covering the remaining negative association-rule
	// forms the paper lists in Sec. 4.4 (¬Q ⇒ S and ¬Q ⇒ ¬S). A full QI
	// tuple matches ¬Qv when it differs from Qv on at least one
	// conditioned attribute.
	Negated bool
	// SA is the sensitive code the probability refers to.
	SA int
	// P is the asserted conditional probability P(SA | Qv) ∈ [0, 1]
	// (P(SA | ¬Qv) when Negated).
	P float64
}

// Validate checks the knowledge statement against a schema.
func (k *DistributionKnowledge) Validate(d *bucket.Bucketized) error {
	if len(k.Attrs) == 0 {
		return fmt.Errorf("constraint: knowledge conditions on no QI attribute")
	}
	if len(k.Attrs) != len(k.Values) {
		return fmt.Errorf("constraint: knowledge has %d attributes but %d values", len(k.Attrs), len(k.Values))
	}
	schema := d.Schema()
	seen := map[int]bool{}
	for i, a := range k.Attrs {
		if a < 0 || a >= schema.Len() {
			return fmt.Errorf("constraint: attribute position %d out of range", a)
		}
		if schema.Attr(a).Role != dataset.QuasiIdentifier {
			return fmt.Errorf("constraint: attribute %q is not a quasi-identifier", schema.Attr(a).Name)
		}
		if seen[a] {
			return fmt.Errorf("constraint: attribute %q conditioned twice", schema.Attr(a).Name)
		}
		seen[a] = true
		if v := k.Values[i]; v < 0 || v >= schema.Attr(a).Cardinality() {
			return fmt.Errorf("constraint: value code %d out of range for attribute %q", v, schema.Attr(a).Name)
		}
	}
	if k.SA < 0 || k.SA >= schema.SA().Cardinality() {
		return fmt.Errorf("constraint: SA code %d out of range", k.SA)
	}
	if k.P < 0 || k.P > 1 {
		return fmt.Errorf("constraint: probability %g outside [0,1]", k.P)
	}
	return nil
}

// qiPositions locates each conditioned attribute's position within the
// QI projection, hoisted out of the per-qid matching loop (the scan over
// the universe runs once per knowledge statement, so the lookup must not
// repeat per tuple). A missing attribute yields -1 and never matches.
func (k *DistributionKnowledge) qiPositions(d *bucket.Bucketized) []int {
	qiIdx := d.Schema().QIIndices()
	pos := make([]int, len(k.Attrs))
	for i, a := range k.Attrs {
		pos[i] = -1
		for p, idx := range qiIdx {
			if idx == a {
				pos[i] = p
				break
			}
		}
	}
	return pos
}

// matchesQID reports whether the knowledge's condition (Qv, or ¬Qv when
// Negated) holds for the full QI tuple of qid, given the attribute
// positions from qiPositions.
func (k *DistributionKnowledge) matchesQID(d *bucket.Bucketized, pos []int, qid int) bool {
	codes := d.Universe().Codes(qid)
	all := true
	for i, p := range pos {
		if p < 0 || codes[p] != k.Values[i] {
			all = false
			break
		}
	}
	return all != k.Negated
}

// Constraint converts the knowledge to an ME constraint over the space,
// following Sec. 4.1: sum over buckets B and over the unconditioned QI
// attributes Q⁻ of P(Qv, Q⁻, s, B), with right-hand side P·P(Qv), where
// P(Qv) is the sample probability of the condition in the published data
// (the QI attributes of D′ are undisguised, so this is exact). Terms
// pinned to zero by Zero-invariants are omitted from the sum.
func (k *DistributionKnowledge) Constraint(sp *Space) (Constraint, error) {
	d := sp.Data()
	if err := k.Validate(d); err != nil {
		return Constraint{}, err
	}
	u := d.Universe()
	pos := k.qiPositions(d)
	var pqv float64
	var terms []int
	for qid := 0; qid < u.Len(); qid++ {
		if !k.matchesQID(d, pos, qid) {
			continue
		}
		pqv += u.P(qid)
		for _, b := range d.BucketsWithQID(qid) {
			if id, ok := sp.Index(Term{QID: qid, SA: k.SA, Bucket: b}); ok {
				terms = append(terms, id)
			}
		}
	}
	sort.Ints(terms)
	coeffs := make([]float64, len(terms))
	for i := range coeffs {
		coeffs[i] = 1
	}
	return Constraint{
		Kind:   Knowledge,
		Label:  k.label(d),
		Terms:  terms,
		Coeffs: coeffs,
		RHS:    k.P * pqv,
	}, nil
}

// label renders the statement, e.g. "P(Flu | Gender=male) = 0.3" or
// "P(Flu | ¬(Gender=male)) = 0.3".
func (k *DistributionKnowledge) label(d *bucket.Bucketized) string {
	schema := d.Schema()
	conds := make([]string, len(k.Attrs))
	for i, a := range k.Attrs {
		conds[i] = fmt.Sprintf("%s=%s", schema.Attr(a).Name, schema.Attr(a).Value(k.Values[i]))
	}
	body := strings.Join(conds, ",")
	if k.Negated {
		body = "¬(" + body + ")"
	}
	return fmt.Sprintf("P(%s | %s) = %g", schema.SA().Value(k.SA), body, k.P)
}

// AddKnowledge converts each knowledge statement and appends it to the
// system, reporting the first conversion or validation error.
func AddKnowledge(sys *System, ks ...DistributionKnowledge) error {
	for i := range ks {
		c, err := ks[i].Constraint(sys.Space())
		if err != nil {
			return fmt.Errorf("constraint: knowledge %d: %w", i, err)
		}
		if err := sys.Add(c); err != nil {
			return fmt.Errorf("constraint: knowledge %d: %w", i, err)
		}
	}
	return nil
}

// RelevantBuckets returns the sorted bucket indices mentioned by any
// Knowledge-kind constraint in the system — the complement of the paper's
// irrelevant buckets (Definition 5.6). Buckets outside this set keep their
// closed-form within-bucket MaxEnt distribution (Theorem 5).
func RelevantBuckets(sys *System) []int {
	return bucketsTouchedBy(sys, func(k Kind) bool { return k == Knowledge })
}

// TouchedBuckets generalizes RelevantBuckets to every non-invariant
// constraint kind: a bucket is touched when any row that is not one of
// its own QI/SA data invariants lists one of its terms — background
// knowledge (Definition 5.6), individual knowledge (Sec. 6), or any
// future coupling row. A term listed with a zero coefficient counts
// too: its row still links the buckets in Components, which must know
// every bucket a row links. Buckets outside the returned set interact
// with nothing beyond their own invariants, so their posterior is the
// closed-form within-bucket MaxEnt distribution (Theorem 5), which the
// solver's decomposition assigns without entering the numeric solve.
func TouchedBuckets(sys *System) []int {
	return bucketsTouchedBy(sys, func(k Kind) bool {
		return k != QIInvariant && k != SAInvariant
	})
}

// bucketsTouchedBy returns the sorted buckets whose terms any constraint
// whose kind satisfies match lists.
func bucketsTouchedBy(sys *System, match func(Kind) bool) []int {
	seen := map[int]bool{}
	for i := 0; i < sys.Len(); i++ {
		c := sys.At(i)
		if !match(c.Kind) {
			continue
		}
		for _, t := range c.Terms {
			seen[sys.Space().Term(t).Bucket] = true
		}
	}
	out := make([]int, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

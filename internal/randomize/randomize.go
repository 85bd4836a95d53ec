// Package randomize implements the randomization disguising method the
// paper's future work (Sec. 8) targets: uniform randomized response on
// the sensitive attribute (the Agrawal/Evfimievski line of work the
// related-work section cites). Each published record keeps its true
// sensitive value with probability ρ and otherwise reports a value drawn
// uniformly from the whole SA domain; ρ is public.
//
// Privacy-MaxEnt extends naturally: the unknowns are the true joints
// P(Q, S); the QI marginals give exact equality constraints
// Σ_s P(q,s) = P(q); and each observed perturbed count pins an expected
// linear combination Σ_s M(s′|s)·P(q,s) of the unknowns. Because the
// observation is a sample (not an expectation), equality would be
// infeasible, so the counts enter as sampling-tolerance *boxes* — the
// Sec. 4.5 inequality machinery — and the maximum-entropy distribution
// inside the box is the least-biased reconstruction.
package randomize

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/errs"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/telemetry"
)

// Mechanism is uniform randomized response over an SA domain of
// cardinality M: report the truth with probability Rho, otherwise a
// uniform draw from the whole domain (which may repeat the truth).
type Mechanism struct {
	Rho float64
	M   int
}

// Prob returns P(observe = o | true = s).
func (m Mechanism) Prob(o, s int) float64 {
	p := (1 - m.Rho) / float64(m.M)
	if o == s {
		p += m.Rho
	}
	return p
}

// Validate checks the mechanism parameters.
func (m Mechanism) Validate() error {
	if m.Rho < 0 || m.Rho > 1 {
		return fmt.Errorf("randomize: retention probability %g outside [0,1]", m.Rho)
	}
	if m.M < 2 {
		return fmt.Errorf("randomize: SA domain of size %d cannot be randomized", m.M)
	}
	return nil
}

// Perturb publishes the table under the mechanism: the SA column of every
// record is re-drawn per Mechanism, QI columns are untouched.
// Deterministic for a given seed.
func Perturb(t *dataset.Table, rho float64, seed int64) (*dataset.Table, Mechanism, error) {
	if t.Schema().SAIndex() < 0 {
		return nil, Mechanism{}, fmt.Errorf("randomize: table has no sensitive attribute")
	}
	mech := Mechanism{Rho: rho, M: t.Schema().SA().Cardinality()}
	if err := mech.Validate(); err != nil {
		return nil, Mechanism{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := dataset.NewTable(t.Schema())
	saPos := t.Schema().SAIndex()
	row := make([]int, t.Schema().Len())
	for r := 0; r < t.Len(); r++ {
		copy(row, t.Row(r))
		if rng.Float64() >= rho {
			row[saPos] = rng.Intn(mech.M)
		}
		if err := out.AppendCoded(row); err != nil {
			return nil, Mechanism{}, err
		}
	}
	return out, mech, nil
}

// EstimateContext reconstructs the adversary's MaxEnt posterior
// P(S | Q) from a perturbed publication. z sets the sampling-tolerance
// width (the box half-width per observed cell is z·σ̂ + 1/N, with σ̂ the
// binomial standard error of the observed share); z ≤ 0 defaults to 3.
// The returned stats describe the box-constrained dual solve.
// Cancellation interrupts the optimizer (solver.ErrInterrupted), and
// telemetry installed in ctx instruments the solve under a
// "randomize.estimate" span.
func EstimateContext(ctx context.Context, published *dataset.Table, mech Mechanism, z float64, opts maxent.Options) (*dataset.Conditional, maxent.Stats, error) {
	ctx, span := telemetry.Start(ctx, "randomize.estimate",
		telemetry.Int("records", published.Len()))
	defer span.End()
	if err := mech.Validate(); err != nil {
		return nil, maxent.Stats{}, err
	}
	if published.Schema().SAIndex() < 0 {
		return nil, maxent.Stats{}, fmt.Errorf("randomize: published table has no sensitive attribute: %w", errs.ErrNoSensitiveAttribute)
	}
	if mech.M != published.Schema().SA().Cardinality() {
		return nil, maxent.Stats{}, fmt.Errorf("randomize: mechanism domain %d does not match SA cardinality %d",
			mech.M, published.Schema().SA().Cardinality())
	}
	if z <= 0 {
		z = 3
	}
	// The estimator is the offline twin of the served
	// RandomizedResponseScheme path: group the perturbed table by QI
	// tuple into a bucketized view, build the scheme's invariant rows
	// (exact QI equalities + observation boxes) over the view's term
	// space, and solve the boxed dual. Sharing the row builders keeps
	// the two paths' constraint systems identical by construction; see
	// DESIGN.md §13 for the (intentional) divergence from the older
	// full-domain formulation.
	view, err := GroupByQI(published)
	if err != nil {
		return nil, maxent.Stats{}, err
	}
	sp := constraint.NewSpace(view)
	sys, ineqs, err := Invariants(sp, mech, z)
	if err != nil {
		return nil, maxent.Stats{}, err
	}
	sol, err := maxent.SolveWithInequalitiesContext(ctx, sys, ineqs, opts)
	if err != nil {
		return nil, maxent.Stats{}, err
	}
	return sol.Posterior(), sol.Stats, nil
}

// GroupByQI builds the randomized-response published view: one bucket
// per distinct QI tuple, holding that tuple's records with their
// (perturbed) SA values. Bucket order follows the table's universe
// (first-appearance order of QI keys), so the construction is
// deterministic and bucket b's single distinct QID is qid b.
func GroupByQI(t *dataset.Table) (*bucket.Bucketized, error) {
	if t.Schema().SAIndex() < 0 {
		return nil, fmt.Errorf("randomize: table has no sensitive attribute: %w", errs.ErrNoSensitiveAttribute)
	}
	u := dataset.NewUniverse(t)
	groups := make([][]int, u.Len())
	for r := 0; r < t.Len(); r++ {
		qid, ok := u.QID(t.QIKey(r))
		if !ok {
			return nil, fmt.Errorf("randomize: row %d missing from universe", r)
		}
		groups[qid] = append(groups[qid], r)
	}
	return bucket.FromPartition(t, groups)
}

// Invariants builds what a randomized-response view certifies, over the
// view's term space: per-bucket QI marginal equalities (exact — QI
// columns are unperturbed) and, for every observed (QI, SA′) cell, a
// sampling-tolerance observation box
//
//	Σ_s M(s′|s)·P(q,s,b) ∈ [target − ε, target + ε],
//
// with target the observed share, σ̂ its binomial standard error, and
// ε = z·σ̂ + 1/N. SA values never observed for a QI group have no
// variable in the space (Eq. 6 zero-invariants held structurally), so
// both the coefficient sums and the zero-count boxes are restricted to
// the observed support. The view must be QI-grouped: every bucket has
// exactly one distinct QI tuple (GroupByQI's output shape).
func Invariants(sp *constraint.Space, mech Mechanism, z float64) (*constraint.System, []maxent.Inequality, error) {
	if err := mech.Validate(); err != nil {
		return nil, nil, err
	}
	d := sp.Data()
	if mech.M != d.SACardinality() {
		return nil, nil, fmt.Errorf("randomize: mechanism domain %d does not match SA cardinality %d",
			mech.M, d.SACardinality())
	}
	if z <= 0 {
		z = 3
	}
	bigN := float64(d.N())
	sys := constraint.NewSystem(sp)
	var ineqs []maxent.Inequality
	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		qids := bk.DistinctQIDs()
		if len(qids) != 1 {
			return nil, nil, fmt.Errorf("randomize: bucket %d has %d distinct QI tuples, want 1 (view must be QI-grouped): %w",
				b, len(qids), errs.ErrInvalidSchema)
		}
		q := qids[0]
		sas := bk.DistinctSAs()

		// Exact QI marginal: Σ_s P(q,s,b) = P(q ∧ b).
		terms := make([]int, 0, len(sas))
		coeffs := make([]float64, 0, len(sas))
		for _, s := range sas {
			id, ok := sp.Index(constraint.Term{QID: q, SA: s, Bucket: b})
			if !ok {
				return nil, nil, fmt.Errorf("randomize: bucket term missing from space")
			}
			terms = append(terms, id)
			coeffs = append(coeffs, 1)
		}
		sys.MustAdd(constraint.Constraint{
			Kind:   constraint.QIInvariant,
			Label:  fmt.Sprintf("QI q%d b%d", q+1, b+1),
			Terms:  terms,
			Coeffs: coeffs,
			RHS:    d.PQB(q, b),
		})

		// Observation boxes over the observed support.
		for _, o := range sas {
			bterms := make([]int, 0, len(sas))
			bcoeffs := make([]float64, 0, len(sas))
			for _, s := range sas {
				id, ok := sp.Index(constraint.Term{QID: q, SA: s, Bucket: b})
				if !ok {
					return nil, nil, fmt.Errorf("randomize: bucket term missing from space")
				}
				bterms = append(bterms, id)
				bcoeffs = append(bcoeffs, mech.Prob(o, s))
			}
			target := d.PSB(o, b)
			sigma := math.Sqrt(math.Max(target*(1-target), target) / bigN) // binomial SE of the share
			eps := z*sigma + 1/bigN
			ineqs = append(ineqs, maxent.Inequality{
				Label:  fmt.Sprintf("obs q%d s'%d", q+1, o+1),
				Terms:  bterms,
				Coeffs: bcoeffs,
				Lo:     math.Max(0, target-eps),
				Hi:     target + eps,
			})
		}
	}
	return sys, ineqs, nil
}

// ObservedConditional is the naive baseline: read P(S|Q) off the
// perturbed table as if it were the truth. It is biased toward uniform
// by the mechanism; EstimateContext should beat it whenever ρ < 1.
func ObservedConditional(published *dataset.Table) (*dataset.Conditional, error) {
	u := dataset.NewUniverse(published)
	return dataset.TrueConditional(published, u)
}

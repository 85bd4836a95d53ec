// Package core assembles the Privacy-MaxEnt pipeline — the paper's
// contribution — from its substrates: bucketize the microdata (Anatomy,
// L-diversity), mine the Top-(K+, K−) strongest association rules as the
// bound on adversary background knowledge, formulate the published data's
// invariants and the knowledge as linear ME constraints, solve for the
// maximum-entropy joint P(Q,S,B), and report the adversary posterior
// P(S|Q) together with privacy scores.
//
// The outcome of privacy quantification is deliberately a pair (bound,
// scores), per Sec. 4.3: users judge whether the assumed knowledge bound
// is acceptable and read the scores under that assumption.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/errs"
	"privacymaxent/internal/individuals"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
	"privacymaxent/internal/scheme"
	"privacymaxent/internal/telemetry"
)

// Config tunes the pipeline. The zero value reproduces the paper's
// evaluation setup (5-diversity buckets of five with the most frequent SA
// value exempted, minimum rule support 3, decomposition on) and solves
// with the Auto dual algorithm.
type Config struct {
	// Diversity is the L parameter and bucket size. Default 5.
	Diversity int
	// NoExemption disables the footnote-3 relaxation (by default the most
	// frequent SA value is exempt from the diversity check).
	NoExemption bool
	// MinSupport is the association-rule support threshold. Default 3.
	MinSupport int
	// RuleSizes restricts mined rules to given QI-subset sizes T
	// (Figure 6). Empty mines every size.
	RuleSizes []int
	// Solve configures the MaxEnt solver. Decomposition (Sec. 5.5) is on
	// unless NoDecompose is set.
	Solve maxent.Options
	// NoDecompose turns off the irrelevant-bucket optimization.
	NoDecompose bool
	// KeepRedundant keeps the one redundant invariant per bucket that
	// Theorem 3 identifies (useful for ablations; default drops it).
	KeepRedundant bool
	// Audit, when non-nil, builds a numerical-health audit of every
	// equality solve into Report.Audit and turns on convergence-trajectory
	// capture (maxent.Options.CaptureTrace); QuantifyOptions.Audit
	// overrides it per call. Inequality solves (vague knowledge or a boxed
	// scheme) are not audited: their residuals are judged against the
	// augmented two-sided system, not the user's labeled rows.
	Audit *audit.Options
}

func (c Config) withDefaults() Config {
	if c.Diversity <= 0 {
		c.Diversity = 5
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	return c
}

// Bound records the background-knowledge assumption a report was computed
// under: the Top-(K+, K−) association-rule budget (Sec. 4.4).
type Bound struct {
	KPos, KNeg int
}

// Report is the outcome of a quantification run: the knowledge bound, the
// adversary's MaxEnt posterior, and the privacy scores derived from it.
type Report struct {
	// Bound is the knowledge assumption used.
	Bound Bound
	// Knowledge lists the ME knowledge statements that were applied.
	Knowledge []constraint.DistributionKnowledge
	// Posterior is the estimated P*(S|Q).
	Posterior *dataset.Conditional
	// Solution carries the joint P(Q,S,B) and solver statistics.
	Solution *maxent.Solution
	// MaxDisclosure is max P*(s|q) — worst-case linking confidence.
	MaxDisclosure float64
	// PosteriorEntropy is the adversary's average residual uncertainty
	// (bits).
	PosteriorEntropy float64
	// EstimationAccuracy is the paper's weighted KL distance between the
	// true P(S|Q) and the posterior; it is negative-one when no ground
	// truth was supplied.
	EstimationAccuracy float64
	// Timings is the per-stage wall-clock breakdown of the run that
	// produced this report (stages present depend on the entry point:
	// RunContext covers bucketize/mine/truth/prepare, a prepared
	// quantification starts at select or formulate).
	Timings Timings
	// Audit is the numerical-health record of the solve; nil unless an
	// audit was requested (QuantifyOptions.Audit or Config.Audit), and
	// always nil for inequality solves.
	Audit *audit.SolveAudit
}

// Quantifier runs Privacy-MaxEnt quantifications under one configuration.
type Quantifier struct {
	cfg Config
}

// New creates a Quantifier; see Config for defaults.
func New(cfg Config) *Quantifier {
	return &Quantifier{cfg: cfg.withDefaults()}
}

// Config reports the effective (defaulted) configuration.
func (q *Quantifier) Config() Config { return q.cfg }

// BucketizeContext publishes the table with the configured Anatomy
// bucketizer and returns the published view plus the row partition (the
// partition is the ground-truth assignment and must not be published).
// It records a "core.bucketize" span and bucketization metrics from the
// context.
func (q *Quantifier) BucketizeContext(ctx context.Context, t *dataset.Table) (*bucket.Bucketized, [][]int, error) {
	_, span := telemetry.Start(ctx, "core.bucketize",
		telemetry.Int("records", t.Len()),
		telemetry.Int("diversity", q.cfg.Diversity))
	defer span.End()
	start := time.Now()
	d, part, err := bucket.Anatomize(t, bucket.Options{
		L:                  q.cfg.Diversity,
		ExemptMostFrequent: !q.cfg.NoExemption,
	})
	if err != nil {
		return nil, nil, err
	}
	span.SetAttr(telemetry.Int("buckets", d.NumBuckets()))
	if reg := telemetry.Metrics(ctx); reg != nil {
		reg.Counter("pmaxent_bucketize_total").Add(1)
		reg.Histogram("pmaxent_bucketize_duration_seconds", telemetry.DurationBuckets).
			Observe(time.Since(start).Seconds())
		reg.Histogram("pmaxent_bucketize_buckets", telemetry.CountBuckets).
			Observe(float64(d.NumBuckets()))
	}
	return d, part, nil
}

// MineRulesContext mines all association rules from the original data,
// sorted strongest-first, ready for Top-(K+, K−) selection. Mining stops
// once ctx is done; it records a "core.mine_rules" span enclosing
// assoc's "assoc.mine", and mining metrics from the context. Subsets are mined on as many workers as the
// solve uses (Config.Solve.Workers, zero meaning GOMAXPROCS); the rules
// do not depend on that count.
func (q *Quantifier) MineRulesContext(ctx context.Context, t *dataset.Table) ([]assoc.Rule, error) {
	ctx, span := telemetry.Start(ctx, "core.mine_rules",
		telemetry.Int("records", t.Len()),
		telemetry.Int("min_support", q.cfg.MinSupport))
	defer span.End()
	start := time.Now()
	rules, err := assoc.MineContext(ctx, t, assoc.Options{
		MinSupport: q.cfg.MinSupport,
		Sizes:      q.cfg.RuleSizes,
		Workers:    q.cfg.Solve.WorkerCount(),
	})
	if err != nil {
		return nil, err
	}
	span.SetAttr(telemetry.Int("rules", len(rules)))
	if reg := telemetry.Metrics(ctx); reg != nil {
		reg.Counter("pmaxent_mine_total").Add(1)
		reg.Histogram("pmaxent_mine_duration_seconds", telemetry.DurationBuckets).
			Observe(time.Since(start).Seconds())
		reg.Histogram("pmaxent_mine_rules", telemetry.CountBuckets).
			Observe(float64(len(rules)))
	}
	return rules, nil
}

// Prepared caches the data-dependent, knowledge-independent half of a
// quantification: the term space and the data-invariant base system.
// It is the only formulation path: every quantification clones the base
// (constraint.System.Clone, a copy-on-append overlay) and appends just
// its own knowledge, so sweeps that evaluate many knowledge sets over the
// same published data (Figures 5–7) pay the space/invariant construction
// once. A Prepared instance is safe for concurrent use: the base system
// is never mutated after Prepare returns.
type Prepared struct {
	q    *Quantifier
	sp   *constraint.Space
	base *constraint.System
	// sch is the publication scheme the base system was built under; nil
	// means the classic default (Anatomy-style equality invariants).
	sch scheme.Scheme
	// ineqs holds the scheme's inequality rows (observation boxes).
	// Non-empty routes every solve through the boxed dual, which
	// supports neither decomposition, warm starts, delta reuse, nor
	// audits.
	ineqs []maxent.Inequality
}

// Prepare builds the reusable base for quantifications of d: term space
// plus data invariants under the Quantifier's configuration, instrumented
// as a "core.prepare" span. Library users and the pmaxentd server build
// the invariant system once per publication, then append only the
// per-request knowledge rows via Prepared.QuantifyWithOptions and
// friends. It is PrepareScheme under the default scheme: the classic
// Theorem 1–3 equality invariants every Anatomy/Mondrian view certifies.
func (q *Quantifier) Prepare(ctx context.Context, d *bucket.Bucketized) (*Prepared, error) {
	return q.PrepareScheme(ctx, d, nil)
}

// PrepareScheme is Prepare with an explicit publication scheme: the
// constraint rows come from sch.Invariants instead of the fixed
// equality-invariant builder, so a randomized-response view's
// observation boxes (or any future scheme's rows) flow through the same
// prepared pipeline — shared space, shared knowledge overlay, shared
// caching. A nil scheme means the classic default and is exactly
// Prepare.
func (q *Quantifier) PrepareScheme(ctx context.Context, d *bucket.Bucketized, sch scheme.Scheme) (*Prepared, error) {
	if d == nil {
		return nil, fmt.Errorf("core: prepare: nil published view: %w", errs.ErrInvalidSchema)
	}
	if d.Schema().SAIndex() < 0 {
		return nil, fmt.Errorf("core: prepare: published view has no sensitive attribute: %w", errs.ErrNoSensitiveAttribute)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := telemetry.Start(ctx, "core.prepare")
	defer span.End()
	sp := constraint.NewSpace(d)
	iopts := constraint.InvariantOptions{DropRedundant: !q.cfg.KeepRedundant}
	var (
		base  *constraint.System
		ineqs []maxent.Inequality
	)
	if sch == nil {
		base = constraint.DataInvariants(sp, iopts)
	} else {
		var err error
		base, ineqs, err = sch.Invariants(sp, iopts)
		if err != nil {
			return nil, fmt.Errorf("core: %s invariants: %w", sch.Name(), err)
		}
		span.SetAttr(telemetry.String("scheme", sch.Name()))
	}
	span.SetAttr(
		telemetry.Int("variables", sp.Len()),
		telemetry.Int("invariants", base.Len()),
		telemetry.Int("inequalities", len(ineqs)))
	return &Prepared{q: q, sp: sp, base: base, sch: sch, ineqs: ineqs}, nil
}

// Space returns the cached term space.
func (p *Prepared) Space() *constraint.Space { return p.sp }

// Boxed reports whether solves route through the boxed (inequality)
// dual — true when the scheme emitted observation boxes. Boxed solves
// support neither decomposition, warm starts, delta reuse, nor audits.
func (p *Prepared) Boxed() bool { return len(p.ineqs) > 0 }

// CloneSystem returns a copy-on-append overlay of the data-invariant
// base system: appending knowledge rows to the clone never mutates the
// base, so every grid point of a sweep starts from the same shared
// invariants.
func (p *Prepared) CloneSystem() *constraint.System { return p.base.Clone() }

// QuantifyOptions collects the per-request inputs of a prepared
// quantification. The zero value solves the bare invariant system cold.
type QuantifyOptions struct {
	// Knowledge holds the background-knowledge statements appended to
	// the invariant base for this solve.
	Knowledge []constraint.DistributionKnowledge
	// Truth, when non-nil, enables accuracy scoring against the true
	// conditional distribution.
	Truth *dataset.Conditional
	// Warm seeds the dual solve with the duals of a previously solved,
	// similar system (typically the previous grid point of a sweep,
	// available as Report.Solution.Duals). The seed is a pure
	// performance hint — the solve converges to the same posterior from
	// any start — matched by constraint label, so rows added or removed
	// between grid points are handled gracefully (see
	// maxent.Options.WarmStart).
	Warm []maxent.ConstraintDual
	// Audit, when non-nil, attaches a SolveAudit built with these
	// options to the report; nil falls back to Config.Audit. Per call,
	// so a server can audit individual requests against one shared
	// Prepared.
	Audit *audit.Options
	// Eps, when positive, makes every knowledge statement vague
	// (Sec. 4.5): it enters the solve as the two-sided box
	// (P−ε)·P(Qv) ≤ Σ P(Qv,Q⁻,s,B) ≤ (P+ε)·P(Qv) instead of an equality.
	// Vague solves take the boxed dual, so Warm and Audit do not apply.
	Eps float64
}

// QuantifyWithOptions solves the given knowledge over the cached base
// system and scores the posterior. On a boxed Prepared (a scheme with
// observation boxes), or with vague knowledge, the solve routes through
// the inequality dual, where decomposition, warm starts and audits do
// not apply.
func (p *Prepared) QuantifyWithOptions(ctx context.Context, o QuantifyOptions) (*Report, error) {
	rep, _, err := p.quantify(ctx, o, nil, false)
	return rep, err
}

// DeltaState is the opaque baseline a delta quantification reuses: the
// previously assembled constraint system and its converged solution.
// QuantifyDelta consumes one (nil means cold) and returns the next; the
// state chains naturally across a sequence of knowledge variants —
// digest N's state seeds digest N+1's solve. A DeltaState is immutable
// after creation and safe to share across goroutines.
type DeltaState struct {
	sys *constraint.System
	sol *maxent.Solution
}

// QuantifyDelta is QuantifyWithOptions with incremental reuse: the new
// knowledge overlay is diffed against prev's system, decomposition
// components whose constraint rows are unchanged carry their converged
// posterior and duals over verbatim (zero solver iterations), and only
// changed or new components re-solve, warm-started from prev's duals.
// prev == nil (or an unusable/unconverged baseline) degrades to a cold
// solve. The returned DeltaState seeds the next call; it is nil when
// this solve did not converge, so a failed solve never becomes a
// baseline, and for boxed solves, which have no components to reuse.
// Decomposition is forced on for the delta path — components are the
// unit of reuse.
func (p *Prepared) QuantifyDelta(ctx context.Context, o QuantifyOptions, prev *DeltaState) (*Report, *DeltaState, error) {
	return p.quantify(ctx, o, prev, true)
}

// quantify is the one body behind QuantifyWithOptions and QuantifyDelta:
// formulate, then solve → score → audit → metrics. delta forces
// decomposition, diffs against prev when it is non-nil, and returns the
// next state for a converged equality solve.
func (p *Prepared) quantify(ctx context.Context, o QuantifyOptions, prev *DeltaState, delta bool) (*Report, *DeltaState, error) {
	ctx, span := telemetry.Start(ctx, "core.quantify",
		telemetry.Int("knowledge", len(o.Knowledge)),
		telemetry.Bool("warm", len(o.Warm) > 0),
		telemetry.Bool("delta", prev != nil),
		telemetry.Float("epsilon", o.Eps))
	defer span.End()
	var tm Timings
	boxed := p.Boxed() || o.Eps > 0
	sys, ineqs, err := p.formulate(ctx, o, &tm)
	if err != nil {
		return nil, nil, err
	}
	auditOpts := o.Audit
	if auditOpts == nil {
		auditOpts = p.q.cfg.Audit
	}
	solveStart := time.Now()
	var sol *maxent.Solution
	if boxed {
		auditOpts = nil
		sol, err = maxent.SolveWithInequalitiesContext(ctx, sys, ineqs, p.q.cfg.Solve)
		if err != nil {
			return nil, nil, fmt.Errorf("core: inequality solve: %w", err)
		}
	} else {
		opts := p.q.cfg.Solve
		opts.Decompose = delta || !p.q.cfg.NoDecompose
		opts.WarmStart = o.Warm
		if auditOpts != nil {
			opts.CaptureTrace = true
		}
		if prev != nil {
			sol, err = maxent.SolveDeltaContext(ctx, sys, &maxent.Baseline{Sys: prev.sys, Sol: prev.sol}, opts)
		} else {
			sol, err = maxent.SolveContext(ctx, sys, opts)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: maxent solve: %w", err)
		}
	}
	tm.Add(StageSolve, time.Since(solveStart))
	rep, err := score(ctx, sol, o.Knowledge, o.Truth, &tm)
	if err != nil {
		return nil, nil, err
	}
	if auditOpts != nil {
		auditStart := time.Now()
		_, aspan := telemetry.Start(ctx, "core.audit")
		rep.Audit = audit.New(sys, sol, *auditOpts)
		rep.Audit.RequestID = telemetry.RequestID(ctx)
		if p.sch != nil {
			rep.Audit.Scheme = p.sch.Name()
		}
		aspan.End()
		tm.Add(StageAudit, time.Since(auditStart))
	}
	rep.Timings = tm
	if reg := telemetry.Metrics(ctx); reg != nil {
		reg.Counter("pmaxent_quantify_total").Add(1)
		reg.Histogram("pmaxent_quantify_duration_seconds", telemetry.DurationBuckets).
			Observe(tm.Total().Seconds())
	}
	var next *DeltaState
	if delta && !boxed && sol.Stats.Converged {
		next = &DeltaState{sys: sys, sol: sol}
	}
	return rep, next, nil
}

// formulate clones the base system and adds o's knowledge under a
// "core.formulate" span, recording the stage timing into tm. Exact
// knowledge becomes equality rows; with o.Eps > 0 each statement becomes
// a ±ε box after the scheme's own boxes, which formulate returns
// alongside the equality system.
func (p *Prepared) formulate(ctx context.Context, o QuantifyOptions, tm *Timings) (*constraint.System, []maxent.Inequality, error) {
	_, span := telemetry.Start(ctx, "core.formulate",
		telemetry.Int("knowledge", len(o.Knowledge)))
	defer span.End()
	start := time.Now()
	sys := p.base.Clone()
	ineqs := p.ineqs
	if o.Eps > 0 {
		ineqs = slices.Clip(ineqs) // append must not write into the shared boxes
		for i := range o.Knowledge {
			iq, err := maxent.VagueKnowledge(p.sp, o.Knowledge[i], o.Eps)
			if err != nil {
				return nil, nil, fmt.Errorf("core: vague knowledge %d: %w", i, err)
			}
			ineqs = append(ineqs, iq)
		}
	} else if err := constraint.AddKnowledge(sys, o.Knowledge...); err != nil {
		return nil, nil, fmt.Errorf("core: adding knowledge: %w", err)
	}
	span.SetAttr(
		telemetry.Int("variables", p.sp.Len()),
		telemetry.Int("constraints", sys.Len()),
		telemetry.Int("inequalities", len(ineqs)))
	tm.Add(StageFormulate, time.Since(start))
	if reg := telemetry.Metrics(ctx); reg != nil {
		reg.Histogram("pmaxent_formulate_constraints", telemetry.CountBuckets).
			Observe(float64(sys.Len() + len(ineqs)))
	}
	return sys, ineqs, nil
}

// score derives the posterior and privacy scores from a solution under a
// "core.score" span, recording the stage timing into tm.
func score(ctx context.Context, sol *maxent.Solution, knowledge []constraint.DistributionKnowledge, truth *dataset.Conditional, tm *Timings) (*Report, error) {
	_, span := telemetry.Start(ctx, "core.score")
	defer span.End()
	start := time.Now()
	post := sol.Posterior()
	rep := &Report{
		Knowledge:          knowledge,
		Posterior:          post,
		Solution:           sol,
		MaxDisclosure:      metrics.MaxDisclosure(post),
		PosteriorEntropy:   metrics.PosteriorEntropy(post),
		EstimationAccuracy: -1,
	}
	if truth != nil {
		acc, err := metrics.EstimationAccuracy(truth, post)
		if err != nil {
			return nil, fmt.Errorf("core: estimation accuracy: %w", err)
		}
		rep.EstimationAccuracy = acc
	}
	span.SetAttr(telemetry.Float("max_disclosure", rep.MaxDisclosure))
	tm.Add(StageScore, time.Since(start))
	return rep, nil
}

// QuantifyWithRules applies the Top-(KPos, KNeg) strongest rules from a
// pre-mined, sorted rule list over the cached base system; warm seeds
// the duals as QuantifyOptions.Warm does. Rule selection is timed as
// the "select" stage under a "core.select_rules" span.
func (p *Prepared) QuantifyWithRules(ctx context.Context, rules []assoc.Rule, bound Bound, truth *dataset.Conditional, warm []maxent.ConstraintDual) (*Report, error) {
	selStart := time.Now()
	_, selSpan := telemetry.Start(ctx, "core.select_rules",
		telemetry.Int("mined", len(rules)),
		telemetry.Int("k_pos", bound.KPos),
		telemetry.Int("k_neg", bound.KNeg))
	selected := assoc.TopK(rules, bound.KPos, bound.KNeg)
	knowledge := make([]constraint.DistributionKnowledge, len(selected))
	for i := range selected {
		knowledge[i] = selected[i].Knowledge()
	}
	selSpan.SetAttr(telemetry.Int("selected", len(selected)))
	selSpan.End()
	selDur := time.Since(selStart)
	rep, err := p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: knowledge, Truth: truth, Warm: warm})
	if err != nil {
		return nil, err
	}
	rep.Bound = bound
	rep.Timings = append(Timings{{Stage: StageSelect, Duration: selDur}}, rep.Timings...)
	return rep, nil
}

// RunContext is the end-to-end convenience: bucketize the original data,
// mine rules, compute the true conditional, prepare the published view,
// apply the Top-(KPos, KNeg) bound and score against the truth. A root
// "core.run" span covers every stage, and Report.Timings carries the
// full per-stage breakdown.
func (q *Quantifier) RunContext(ctx context.Context, t *dataset.Table, bound Bound) (*Report, error) {
	ctx, span := telemetry.Start(ctx, "core.run",
		telemetry.Int("records", t.Len()),
		telemetry.Int("k_pos", bound.KPos),
		telemetry.Int("k_neg", bound.KNeg))
	defer span.End()
	var tm Timings
	start := time.Now()
	d, _, err := q.BucketizeContext(ctx, t)
	if err != nil {
		return nil, fmt.Errorf("core: bucketize: %w", err)
	}
	tm.Add(StageBucketize, time.Since(start))
	start = time.Now()
	rules, err := q.MineRulesContext(ctx, t)
	if err != nil {
		return nil, fmt.Errorf("core: mining rules: %w", err)
	}
	tm.Add(StageMine, time.Since(start))
	start = time.Now()
	_, truthSpan := telemetry.Start(ctx, "core.true_conditional")
	truth, err := dataset.TrueConditional(t, d.Universe())
	truthSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: true conditional: %w", err)
	}
	tm.Add(StageTruth, time.Since(start))
	start = time.Now()
	p, err := q.Prepare(ctx, d)
	if err != nil {
		return nil, err
	}
	tm.Add(StagePrepare, time.Since(start))
	rep, err := p.QuantifyWithRules(ctx, rules, bound, truth, nil)
	if err != nil {
		return nil, err
	}
	tm.Merge(rep.Timings)
	rep.Timings = tm
	return rep, nil
}

// IndividualReport is the Sec. 6 counterpart of Report: per-person
// posteriors under knowledge about individuals, over the
// pseudonym-expanded model.
type IndividualReport struct {
	// Space is the pseudonym term space (persons, their QI groups).
	Space *individuals.Space
	// Solution holds the joint P(i, Q, S, B) and solver statistics.
	Solution *individuals.Solution
	// MaxDisclosure is the largest single-person, single-value posterior.
	MaxDisclosure float64
	// AverageEntropy is the mean per-person posterior entropy in bits.
	AverageEntropy float64
}

// QuantifyIndividuals runs the pseudonym-expanded MaxEnt model (Sec. 6)
// under the given individual-knowledge statements. Canceling ctx stops
// the solve with an error wrapping solver.ErrInterrupted.
func (q *Quantifier) QuantifyIndividuals(ctx context.Context, d *bucket.Bucketized, knowledge []individuals.Knowledge) (*IndividualReport, error) {
	sp := individuals.NewSpace(d)
	opts := q.cfg.Solve
	sol, err := individuals.Solve(ctx, sp, knowledge, opts)
	if err != nil {
		return nil, fmt.Errorf("core: individuals solve: %w", err)
	}
	rep := &IndividualReport{Space: sp, Solution: sol}
	var totalH float64
	for person := 0; person < sp.NumPersons(); person++ {
		post := sol.PersonPosterior(person)
		var h float64
		for _, p := range post {
			if p > rep.MaxDisclosure {
				rep.MaxDisclosure = p
			}
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
		totalH += h
	}
	if sp.NumPersons() > 0 {
		rep.AverageEntropy = totalH / float64(sp.NumPersons())
	}
	return rep, nil
}

// BreakingBound searches for the smallest mixed knowledge budget K (split
// K/2 positive, K−K/2 negative) at which the adversary's maximum
// disclosure reaches the threshold tau, probing a geometric grid up to
// maxK and then binary-searching the bracketing interval. It returns the
// bound and its report, or (nil report, maxK+1) when even maxK keeps
// disclosure below tau — the publisher-facing "how much knowledge can
// this release withstand?" question of Sec. 4.3. d is prepared once for
// every probe, and the returned report's Timings lead with that build as
// the prepare stage.
//
// Disclosure is not perfectly monotone in K (each extra rule reshapes the
// whole MaxEnt distribution), so the result is the first grid/bisection
// point that crosses tau, not a certified minimum.
func (q *Quantifier) BreakingBound(ctx context.Context, d *bucket.Bucketized, rules []assoc.Rule, tau float64, maxK int) (int, *Report, error) {
	if tau <= 0 || tau > 1 {
		return 0, nil, fmt.Errorf("core: threshold %g outside (0, 1]", tau)
	}
	if maxK < 1 {
		return 0, nil, fmt.Errorf("core: maxK %d below 1", maxK)
	}
	start := time.Now()
	p, err := q.Prepare(ctx, d)
	if err != nil {
		return 0, nil, err
	}
	prepDur := time.Since(start)
	at := func(k int) (*Report, error) {
		return p.QuantifyWithRules(ctx, rules, Bound{KPos: k / 2, KNeg: k - k/2}, nil, nil)
	}
	// Geometric probe for a bracket [lo, hi] with disclosure(hi) >= tau.
	lo := 0
	hi := -1
	var hiRep *Report
	for k := 1; ; k *= 2 {
		if k > maxK {
			k = maxK
		}
		rep, err := at(k)
		if err != nil {
			return 0, nil, err
		}
		if rep.MaxDisclosure >= tau {
			hi, hiRep = k, rep
			break
		}
		lo = k
		if k == maxK {
			return maxK + 1, nil, nil
		}
	}
	// Bisect (lo, hi].
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rep, err := at(mid)
		if err != nil {
			return 0, nil, err
		}
		if rep.MaxDisclosure >= tau {
			hi, hiRep = mid, rep
		} else {
			lo = mid
		}
	}
	hiRep.Timings = append(Timings{{Stage: StagePrepare, Duration: prepDur}}, hiRep.Timings...)
	return hi, hiRep, nil
}

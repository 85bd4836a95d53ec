package experiments

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/errs"
	"privacymaxent/internal/scheme"
)

// FrontierPoint is one (scheme, parameter) sample of the privacy–utility
// frontier: the same original table published under one mechanism at one
// parameter setting, quantified by the same adversary.
type FrontierPoint struct {
	// Scheme is the mechanism's wire name; Param a compact parameter
	// label ("l=4", "rho=0.6").
	Scheme string
	Param  string
	// Disclosure is max P*(s|q) under the Top-(K+, K−) mined knowledge —
	// the worst-case linking confidence an informed adversary reaches.
	Disclosure float64
	// EntropyBits is the adversary's residual posterior entropy (bits)
	// under the same knowledge.
	EntropyBits float64
	// Utility is the paper's estimation-accuracy metric against the
	// knowledge-free posterior: the weighted KL distance between the true
	// P(S|Q) and what the published view alone supports. Lower means the
	// view preserves more of the distribution — better utility.
	Utility float64
	// Converged reports whether both solves behind the point converged;
	// boxed (randomized-response) solves with conflicting exact knowledge
	// may stop at the iteration cap.
	Converged bool
}

// frontierSweep is the default parameter grid: three settings per
// scheme, ordered weakest to strongest disguise.
func frontierSweep(seed int64) []struct {
	sch   scheme.Scheme
	param string
} {
	var out []struct {
		sch   scheme.Scheme
		param string
	}
	for _, l := range []int{2, 4, 6} {
		out = append(out, struct {
			sch   scheme.Scheme
			param string
		}{scheme.NewAnatomy(l), "l=" + strconv.Itoa(l)})
	}
	for _, k := range []int{2, 5, 10} {
		out = append(out, struct {
			sch   scheme.Scheme
			param string
		}{scheme.NewMondrian(k), "k=" + strconv.Itoa(k)})
	}
	for _, rho := range []float64{0.9, 0.6, 0.3} {
		out = append(out, struct {
			sch   scheme.Scheme
			param string
		}{scheme.NewRandomizedResponse(rho, seed), fmt.Sprintf("rho=%.1f", rho)})
	}
	return out
}

// Frontier sweeps every publication scheme over its parameter grid and
// quantifies each published view twice under the identical pipeline: once
// with the Top-(kPos, kNeg) mined rules for the disclosure axis, once
// knowledge-free and truth-scored for the utility axis. Because every
// mechanism flows through the same PrepareScheme→Quantify path with the
// same rule pool, the resulting (disclosure, utility) points are directly
// comparable across mechanisms — the frontier a publisher picks from.
//
// The published views are derived fresh from the instance's original
// table (the instance's own Anatomy view is not reused), and each sweep
// point builds one core.Prepared shared by both of its solves. Points
// run concurrently under Config.Workers.
func Frontier(in *Instance, kPos, kNeg int) ([]FrontierPoint, error) {
	sweep := frontierSweep(in.Config.Seed)
	points := make([]FrontierPoint, len(sweep))
	errs := make([]error, len(sweep))

	sem := make(chan struct{}, in.Config.workerCount())
	var wg sync.WaitGroup
	for i := range sweep {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			points[i], errs[i] = in.frontierPoint(sweep[i].sch, sweep[i].param, kPos, kNeg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: frontier %s %s: %w", sweep[i].sch.Name(), sweep[i].param, err)
		}
	}
	return points, nil
}

// frontierPoint evaluates one (scheme, parameter) setting.
func (in *Instance) frontierPoint(sch scheme.Scheme, param string, kPos, kNeg int) (FrontierPoint, error) {
	ctx := context.Background()
	view, err := sch.Publish(in.Table)
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("publish: %w", err)
	}
	truth, err := dataset.TrueConditional(in.Table, view.Universe())
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("truth: %w", err)
	}
	p, err := in.quantifier().PrepareScheme(ctx, view, sch)
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("prepare: %w", err)
	}
	// Utility: the knowledge-free posterior scored against the truth.
	base, err := p.QuantifyWithOptions(ctx, core.QuantifyOptions{Truth: truth})
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("utility solve: %w", err)
	}
	// Disclosure: the same view under the shared Top-K rule pool. For
	// boxed (noisy) views the pool is first filtered to rules the view's
	// structural support can satisfy: exact knowledge mined from the
	// original table can contradict a perturbed view (a flipped singleton
	// group pins probability the rule says is zero), and the adversary
	// model keeps only the knowledge consistent with what they observe.
	rules := in.Rules
	if scheme.Boxed(sch) {
		rules = compatibleRules(view, rules)
	}
	informed, err := p.QuantifyWithRules(ctx, rules, core.Bound{KPos: kPos, KNeg: kNeg}, nil, nil)
	for err != nil && scheme.Boxed(sch) && errors.Is(err, errs.ErrInfeasible) && (kPos > 0 || kNeg > 0) {
		// The single-row filter above cannot catch joint infeasibility:
		// presolve interaction between several exact rules and a perturbed
		// view's pinned cells can still contradict. Back the knowledge off
		// (halving Top-K) until a consistent prefix solves — the adversary
		// keeps the strongest knowledge set the observation supports.
		kPos, kNeg = kPos/2, kNeg/2
		informed, err = p.QuantifyWithRules(ctx, rules, core.Bound{KPos: kPos, KNeg: kNeg}, nil, nil)
	}
	if err != nil {
		return FrontierPoint{}, fmt.Errorf("disclosure solve: %w", err)
	}
	return FrontierPoint{
		Scheme:      sch.Name(),
		Param:       param,
		Disclosure:  informed.MaxDisclosure,
		EntropyBits: informed.PosteriorEntropy,
		Utility:     base.EstimationAccuracy,
		Converged:   base.Solution.Stats.Converged && informed.Solution.Stats.Converged,
	}, nil
}

// compatibleRules filters a mined rule pool to the statements a
// published view's term space can satisfy. For each rule P(s|Qv) = p the
// feasible range of Σ P(q, s, B) over the view is an interval: at most
// the mass of the matching (q, b) cells where s appears at all, and at
// least the mass of cells where s is the bucket's only SA value (those
// are structurally pinned to the full cell mass). Rules whose target
// p·P(Qv) falls outside that interval are single-row infeasible over the
// view and are dropped. Rules conditioning on QI values absent from the
// view are vacuous and dropped too.
func compatibleRules(d *bucket.Bucketized, rules []assoc.Rule) []assoc.Rule {
	u := d.Universe()
	qiPos := make(map[int]int, len(d.Schema().QIIndices()))
	for i, p := range d.Schema().QIIndices() {
		qiPos[p] = i
	}
	matches := func(r *assoc.Rule, qid int) bool {
		codes := u.Codes(qid)
		for i, a := range r.Attrs {
			if codes[qiPos[a]] != r.Values[i] {
				return false
			}
		}
		return true
	}
	const tol = 1e-9
	out := make([]assoc.Rule, 0, len(rules))
	for i := range rules {
		r := &rules[i]
		var pinned, reach, pqv float64
		for qid := 0; qid < u.Len(); qid++ {
			if !matches(r, qid) {
				continue
			}
			pqv += u.P(qid)
			for _, b := range d.BucketsWithQID(qid) {
				sas := d.Bucket(b).DistinctSAs()
				for _, s := range sas {
					if s == r.SA {
						reach += d.PQB(qid, b)
						if len(sas) == 1 {
							pinned += d.PQB(qid, b)
						}
						break
					}
				}
			}
		}
		if pqv == 0 {
			continue
		}
		if target := r.PSA() * pqv; target < pinned-tol || target > reach+tol {
			continue
		}
		out = append(out, rules[i])
	}
	return out
}

// WriteFrontierCSV writes the frontier as CSV (header + one row per
// point) — the artifact the CI frontier-smoke job uploads.
func WriteFrontierCSV(w io.Writer, points []FrontierPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scheme", "param", "disclosure", "entropy_bits", "utility_kl", "converged"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{
			p.Scheme,
			p.Param,
			strconv.FormatFloat(p.Disclosure, 'g', 8, 64),
			strconv.FormatFloat(p.EntropyBits, 'g', 8, 64),
			strconv.FormatFloat(p.Utility, 'g', 8, 64),
			strconv.FormatBool(p.Converged),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintFrontier renders the frontier as an aligned text table.
func PrintFrontier(w io.Writer, points []FrontierPoint) error {
	if _, err := fmt.Fprintf(w, "%-20s %-9s %12s %13s %12s %s\n",
		"SCHEME", "PARAM", "DISCLOSURE", "ENTROPY(BITS)", "UTILITY(KL)", "CONVERGED"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-20s %-9s %12.6f %13.6f %12.6f %v\n",
			p.Scheme, p.Param, p.Disclosure, p.EntropyBits, p.Utility, p.Converged); err != nil {
			return err
		}
	}
	return nil
}

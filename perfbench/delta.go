package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/maxent"
)

// The delta workload re-quantifies one publication after each edit of
// the knowledge: a seeded walk over a Top-(20,20) rule pool that adds a
// rule, then removes one, so about deltaActive rules stay active. Each
// edit goes through core.Prepared.QuantifyDelta with default solver
// options, chaining the returned DeltaState.
const (
	deltaPoolPos = 20
	deltaPoolNeg = 20
	deltaActive  = 15
	deltaChain   = 100  // edits per timed chain (the unit wall_s times)
	deltaSample  = 37   // every deltaSample-th converged edit is checked
	deltaTol     = 1e-8 // on the joint; both solves stop at dual gradient 1e-9
	deltaDiffMax = 400  // (previous, new) pairs the traced run diffs
)

// deltaWalk is the seeded knowledge walk and the chained solve state.
type deltaWalk struct {
	in     *instance
	pool   []assoc.Rule
	active []bool
	rng    *rand.Rand
	state  *core.DeltaState
	edits  int
}

// edit is one measured re-quantification.
type edit struct {
	latency   time.Duration
	err       error
	stats     maxent.Stats
	knowledge []constraint.DistributionKnowledge
	prev      []constraint.DistributionKnowledge // before the edit
	joint     []float64                          // P(Q,S,B), kept for sampled edits only
	fallback  bool                               // solved cold despite a chain
}

func newDeltaWalk(in *instance, seed int64) *deltaWalk {
	pool := assoc.TopK(in.rules, deltaPoolPos, deltaPoolNeg)
	w := &deltaWalk{in: in, pool: pool, active: make([]bool, len(pool)), rng: rand.New(rand.NewSource(seed))}
	for _, i := range w.rng.Perm(len(pool))[:deltaActive] {
		w.active[i] = true
	}
	return w
}

// knowledge lists the active rules in pool order.
func (w *deltaWalk) knowledge() []constraint.DistributionKnowledge {
	var ks []constraint.DistributionKnowledge
	for i, on := range w.active {
		if on {
			ks = append(ks, w.pool[i].Knowledge())
		}
	}
	return ks
}

// toggle flips one rule: an inactive one on even edits, an active one on
// odd edits.
func (w *deltaWalk) toggle() {
	want := w.edits%2 == 1
	var idx []int
	for i, on := range w.active {
		if on == want {
			idx = append(idx, i)
		}
	}
	i := idx[w.rng.Intn(len(idx))]
	w.active[i] = !w.active[i]
	w.edits++
}

// solve re-quantifies the current knowledge against the chained state.
func (w *deltaWalk) solve(ctx context.Context, tr *tracer, keep bool) edit {
	ks := w.knowledge()
	t0 := time.Now()
	id := tr.begin("core.quantify", 0)
	rep, next, err := w.in.prep.QuantifyDelta(ctx, core.QuantifyOptions{Knowledge: ks}, w.state)
	quantifySpan(tr, id, t0, rep)
	e := edit{latency: time.Since(t0), err: err, knowledge: ks}
	if err != nil {
		return e
	}
	e.stats = rep.Solution.Stats
	e.fallback = w.state == nil || (e.stats.ReusedComponents == 0 && e.stats.DirtyComponents == 0)
	if keep {
		e.joint = rep.Solution.X
	}
	w.state = next // nil after an unconverged solve: the next edit starts cold
	return e
}

// step applies one edit and solves it.
func (w *deltaWalk) step(ctx context.Context, tr *tracer, keep bool) edit {
	prev := w.knowledge()
	w.toggle()
	e := w.solve(ctx, tr, keep)
	e.prev = prev
	return e
}

// chain runs deltaChain edits and returns them with the chain's wall time.
func (w *deltaWalk) chain(ctx context.Context, tr *tracer) ([]edit, time.Duration) {
	edits := make([]edit, 0, deltaChain)
	start := time.Now()
	for i := 0; i < deltaChain; i++ {
		edits = append(edits, w.step(ctx, tr, (w.edits+1)%deltaSample == 0))
	}
	return edits, time.Since(start)
}

func runDelta(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	q := core.New(core.Config{})
	var w *deltaWalk
	setup, err := timeSetup(9, func() error {
		in, err := buildInstance(ctx, tr, q, instanceRecords, instanceTableSeed, []int{1, 2})
		if err != nil {
			return err
		}
		w = newDeltaWalk(in, cfg.seed)
		// The baseline: a cold solve of the starting knowledge.
		if e := w.solve(ctx, nil, false); e.err != nil || w.state == nil {
			return fmt.Errorf("baseline solve did not converge (err %v)", e.err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	// A traced run spends half its time untraced, for the overhead.
	phases := []*tracer{nil}
	if cfg.trace {
		phases = []*tracer{nil, tr}
	}
	var walls [2][]float64
	var all, traced []edit
	for pi, ptr := range phases {
		deadline := time.Now().Add(cfg.seconds / time.Duration(len(phases)))
		for len(walls[pi]) == 0 || time.Now().Before(deadline) {
			edits, wall := w.chain(ctx, ptr)
			walls[pi] = append(walls[pi], wall.Seconds())
			all = append(all, edits...)
			if ptr != nil {
				traced = append(traced, edits...)
			}
		}
	}
	checkDelta(ctx, out, w.in, all)

	var lat []float64
	unconverged := 0
	for _, e := range all {
		lat = append(lat, ms(e.latency))
		if e.err == nil && !e.stats.Converged {
			unconverged++
		}
	}
	out.metrics["unconverged_points"] = float64(unconverged)
	if !cfg.trace {
		out.metrics["wall_s"] = median(walls[0])
		out.metrics["latency_p50_ms"] = percentile(lat, 50)
		out.metrics["latency_p95_ms"] = percentile(lat, 95)
		out.metrics["throughput_rps"] = float64(len(all)) / sum(walls[0])
		out.metrics["peak_rss_mb"], err = peakRSSMB(0)
		return out, err
	}

	diffLayer(w.in.prep, tr, traced)
	self := tr.selfTimes()
	setupLayers(out, self, len(w.in.rules))
	out.metrics["core.quantify_ms"] = self["core.quantify"].meanMS()
	out.metrics["constraint.formulate_ms"] = self["constraint.formulate"].meanMS()
	out.metrics["constraint.diff_ms"] = self["constraint.diff"].meanMS()
	out.metrics["maxent.solve_ms"] = self["maxent.solve"].meanMS()
	out.metrics["metrics.score_ms"] = self["metrics.score"].meanMS()
	deltaLayers(out, traced)
	out.metrics["trace.overhead_pct"] = 100 * (median(walls[1]) - median(walls[0])) / median(walls[0])
	return out, nil
}

// deltaLayers fills the solver counters of the traced edits.
func deltaLayers(out *outcome, edits []edit) {
	var iters, evals, comps, reused, dirty, rows, fallbacks, capped float64
	for _, e := range edits {
		iters += float64(e.stats.Iterations)
		evals += float64(e.stats.Evaluations)
		comps += float64(e.stats.Components)
		reused += float64(e.stats.ReusedComponents)
		dirty += float64(e.stats.DirtyComponents)
		rows += float64(len(e.knowledge))
		if e.fallback {
			fallbacks++
		}
		if e.err == nil && !e.stats.Converged {
			capped++
		}
	}
	n := float64(len(edits))
	out.metrics["maxent.iterations"] = ratio(iters, n)
	out.metrics["maxent.evaluations"] = ratio(evals, n)
	out.metrics["maxent.ns_per_eval"] = ratio(out.metrics["maxent.solve_ms"]*1e6*n, evals)
	out.metrics["maxent.components"] = ratio(comps, n)
	out.metrics["maxent.reused_components"] = ratio(reused, n)
	out.metrics["maxent.dirty_components"] = ratio(dirty, n)
	out.metrics["maxent.reuse_ratio"] = ratio(reused, reused+dirty)
	out.metrics["maxent.cold_fallbacks"] = fallbacks
	out.metrics["maxent.capped"] = capped
	out.metrics["constraint.knowledge_rows"] = ratio(rows, n)
}

// diffLayer times constraint.DiffSystems on the (previous, new) system
// pair of the traced edits; the systems are assembled outside the span.
func diffLayer(p *core.Prepared, tr *tracer, edits []edit) {
	for i, e := range edits {
		if i == deltaDiffMax {
			break
		}
		old, cur := p.CloneSystem(), p.CloneSystem()
		if constraint.AddKnowledge(old, e.prev...) != nil || constraint.AddKnowledge(cur, e.knowledge...) != nil {
			continue
		}
		id := tr.begin("constraint.diff", 0)
		constraint.DiffSystems(old, cur)
		tr.end(id)
	}
}

// checkDelta counts solve errors as failures and compares every sampled
// converged edit's MaxEnt posterior P(Q,S,B) with a cold solve of the
// same knowledge. Both solves stop once every constraint residual is
// below the default gradient tolerance 1e-9, so their joints may each sit
// a few 1e-9 from the optimum: the check allows 1e-8. P(S|Q) is not
// compared cell by cell, since dividing by a small P(q) magnifies the
// same gap to ~1e-6.
func checkDelta(ctx context.Context, out *outcome, in *instance, edits []edit) {
	for _, e := range edits {
		out.attempted++
		if e.err != nil {
			out.failed++
			out.fail("delta edit: %v", e.err)
			continue
		}
		if e.joint == nil || !e.stats.Converged {
			continue
		}
		rep, err := in.prep.QuantifyWithOptions(ctx, core.QuantifyOptions{Knowledge: e.knowledge})
		if err != nil {
			out.failed++
			out.fail("cold re-solve: %v", err)
			continue
		}
		if d := maxAbsDiff(e.joint, rep.Solution.X); !(d <= deltaTol) {
			out.failed++
			out.fail("delta posterior differs from a cold solve by %.3g (tolerance %g)", d, deltaTol)
		}
	}
}

// maxAbsDiff is the largest |a[i] − b[i]|, +Inf on a length mismatch.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/core"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/solver"
)

// kGrid is Figure 5's geometric K grid, cut at the smaller polarity pool.
var kGrid = []int{0, 5, 10, 25, 50, 100, 200, 400, 800, 1600, 3200}

// curves are Figure 5's three series: K negative rules, K positive
// rules, and K/2 of each.
var curves = []struct {
	name  string
	bound func(k int) core.Bound
}{
	{"K-", func(k int) core.Bound { return core.Bound{KNeg: k} }},
	{"K+", func(k int) core.Bound { return core.Bound{KPos: k} }},
	{"(K+, K-)", func(k int) core.Bound { return core.Bound{KPos: k / 2, KNeg: k - k/2} }},
}

// referenceAccuracy is the kept Figure 5 reference: every point's
// estimation accuracy and whether its solve converged. Regenerate with
// --update-reference after a change that legitimately moves it.
//
//go:embed figure5_reference.json
var referenceJSON []byte

const referenceTolerance = 1e-6

// sweepPoint is one solved grid point.
type sweepPoint struct {
	Curve     string  `json:"curve"`
	K         int     `json:"k"`
	Accuracy  float64 `json:"accuracy"`
	Converged bool    `json:"converged"`

	err       error
	stats     maxent.Stats
	solve     time.Duration
	knowledge int
}

// sweepQuantifier is the pipeline under the experiments package's solver
// settings (6000 LBFGS iterations, gradient tolerance 1e-8).
func sweepQuantifier() *core.Quantifier {
	return core.New(core.Config{
		Diversity:  instanceDiversity,
		MinSupport: instanceSupport,
		Solve:      maxent.Options{Solver: solver.Options{MaxIterations: 6000, GradTol: 1e-8}},
	})
}

// sweepPass runs the three curves over the K grid, each curve
// warm-chained from its previous converged point, at most GOMAXPROCS
// curves in flight, started in a fixed order. It returns the points, the
// time from the pass's start until each curve was complete, and the
// pass's wall time.
func sweepPass(ctx context.Context, in *instance, tr *tracer) ([]sweepPoint, []time.Duration, time.Duration) {
	pos, neg := assoc.Split(in.rules)
	var ks []int
	for _, k := range kGrid {
		if k <= min(len(pos), len(neg)) {
			ks = append(ks, k)
		}
	}
	results := make([][]sweepPoint, len(curves))
	curveWalls := make([]time.Duration, len(curves))
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), len(curves)))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range curves {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() { curveWalls[ci] = time.Since(start) }()
			var warm []maxent.ConstraintDual
			for _, k := range ks {
				t0 := time.Now()
				id := tr.begin("core.quantify", 0)
				rep, err := in.prep.QuantifyWithRules(ctx, in.rules, c.bound(k), in.truth, warm)
				quantifySpan(tr, id, t0, rep)
				p := sweepPoint{Curve: c.name, K: k, err: err}
				warm = nil
				if err == nil {
					p.Accuracy = rep.EstimationAccuracy
					p.Converged = rep.Solution.Stats.Converged
					p.stats = rep.Solution.Stats
					p.solve = rep.Timings.Get(core.StageSolve)
					p.knowledge = len(rep.Knowledge)
					// Chain only converged duals: a capped endpoint depends
					// on its start, so the curve restarts cold after one.
					if p.Converged {
						warm = rep.Solution.Duals
					}
				}
				results[ci] = append(results[ci], p)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sweepPoint
	for _, r := range results {
		all = append(all, r...)
	}
	return all, curveWalls, wall
}

func runSweep(ctx context.Context, cfg config, tr *tracer, update bool) (*outcome, error) {
	out := newOutcome()
	q := sweepQuantifier()
	var in *instance
	setup, err := timeSetup(9, func() (err error) {
		in, err = buildInstance(ctx, tr, q, instanceRecords, instanceTableSeed, []int{1, 2})
		return err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	var ref []sweepPoint
	if err := json.Unmarshal(referenceJSON, &ref); err != nil && !update {
		return nil, fmt.Errorf("reading the kept reference: %w", err)
	}

	if cfg.trace {
		return sweepTraced(ctx, in, tr, ref, out)
	}

	var (
		walls, lat []float64
		capped     []float64
		points     int
		total      time.Duration
	)
	// Passes run while the next is expected to end inside --seconds, so a
	// pass just under the window does not double the run.
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start)+total/time.Duration(pass) <= cfg.seconds; pass++ {
		pts, curveWalls, wall := sweepPass(ctx, in, nil)
		walls = append(walls, wall.Seconds())
		total += wall
		n := checkSweep(out, pts, ref)
		capped = append(capped, float64(n))
		// A sweep answers a curve at a time: latency is the time until
		// each curve is complete. Per point, it would mostly measure which
		// other curve's solve the point overlapped.
		for _, cw := range curveWalls {
			lat = append(lat, ms(cw))
		}
		points += len(pts)
		if update && pass == 0 {
			if err := writeReference(cfg.root, pts); err != nil {
				return nil, err
			}
		}
	}
	out.metrics["wall_s"] = median(walls)
	out.metrics["latency_p50_ms"] = percentile(lat, 50)
	out.metrics["latency_p95_ms"] = percentile(lat, 95)
	out.metrics["throughput_rps"] = float64(points) / total.Seconds()
	out.metrics["unconverged_points"] = median(capped)
	out.metrics["peak_rss_mb"], err = peakRSSMB(0)
	return out, err
}

// speedupPoint is the parallelism diagnostic's grid point: the K+ curve
// at K = 400, its first capped point. Capped solves take ~91% of the
// sweep's solve time, so their parallel speedup bounds the sweep's.
var speedupPoint = core.Bound{KPos: 400}

// sweepTraced runs an untraced pass and a traced pass, which give the
// tracing overhead, the layers from the traced pass, and the parallel
// speedup: speedupPoint solved cold at GOMAXPROCS=1 against
// GOMAXPROCS=NumCPU. (A whole sweep at one CPU would take a minute.)
func sweepTraced(ctx context.Context, in *instance, tr *tracer, ref []sweepPoint, out *outcome) (*outcome, error) {
	_, _, wallU := sweepPass(ctx, in, nil)
	pts, _, wallT := sweepPass(ctx, in, tr)
	capped := checkSweep(out, pts, ref)
	var walls [2]time.Duration
	for i, procs := range []int{runtime.NumCPU(), 1} {
		prev := runtime.GOMAXPROCS(procs)
		start := time.Now()
		_, err := in.prep.QuantifyWithRules(ctx, in.rules, speedupPoint, in.truth, nil)
		walls[i] = time.Since(start)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, fmt.Errorf("speedup diagnostic: %w", err)
		}
	}

	self := tr.selfTimes()
	setupLayers(out, self, len(in.rules))
	out.metrics["core.quantify_ms"] = self["core.quantify"].meanMS()
	out.metrics["constraint.formulate_ms"] = self["constraint.formulate"].meanMS()
	out.metrics["metrics.score_ms"] = self["metrics.score"].meanMS()
	out.metrics["maxent.solve_ms"] = self["maxent.solve"].meanMS()
	solveLayers(out, pts)
	out.metrics["unconverged_points"] = float64(capped)
	out.metrics["maxent.parallel_speedup"] = walls[1].Seconds() / walls[0].Seconds()
	out.metrics["trace.overhead_pct"] = 100 * (wallT.Seconds() - wallU.Seconds()) / wallU.Seconds()
	return out, nil
}

// solveLayers fills the maxent counters of a traced sweep pass, splitting
// solve time between converged and capped solves.
func solveLayers(out *outcome, pts []sweepPoint) {
	var conv, capd []float64
	var iters, evals, comps, dims, rows float64
	var solveNS float64
	for _, p := range pts {
		if p.Converged {
			conv = append(conv, ms(p.solve))
		} else {
			capd = append(capd, ms(p.solve))
		}
		iters += float64(p.stats.Iterations)
		evals += float64(p.stats.Evaluations)
		comps += float64(p.stats.Components)
		dims += float64(p.stats.ReducedDualDim)
		rows += float64(p.knowledge)
		solveNS += float64(p.solve.Nanoseconds())
	}
	n := float64(len(pts))
	out.metrics["maxent.solve_converged_ms"] = mean(conv)
	out.metrics["maxent.solve_capped_ms"] = mean(capd)
	out.metrics["maxent.capped_time_share"] = ratio(mean(capd)*float64(len(capd)), solveNS/1e6)
	out.metrics["maxent.capped"] = float64(len(capd))
	out.metrics["maxent.iterations"] = ratio(iters, n)
	out.metrics["maxent.evaluations"] = ratio(evals, n)
	out.metrics["maxent.ns_per_eval"] = ratio(solveNS, evals)
	out.metrics["maxent.components"] = ratio(comps, n)
	out.metrics["maxent.reduced_dual_dim"] = ratio(dims, n)
	out.metrics["constraint.knowledge_rows"] = ratio(rows, n)
}

// checkSweep counts solve errors as failures, compares every point that
// converged here and in the reference against the kept accuracy, and
// returns the number of capped points. Capped points are counted, not
// compared: their endpoint depends on where the solve started.
func checkSweep(out *outcome, pts []sweepPoint, ref []sweepPoint) int {
	want := map[string]sweepPoint{}
	for _, r := range ref {
		want[fmt.Sprintf("%s/%d", r.Curve, r.K)] = r
	}
	if len(ref) > 0 && len(pts) != len(ref) {
		out.fail("sweep solved %d points, the reference has %d", len(pts), len(ref))
	}
	capped := 0
	for _, p := range pts {
		out.attempted++
		if p.err != nil {
			out.failed++
			out.fail("%s K=%d: %v", p.Curve, p.K, p.err)
			continue
		}
		if !p.Converged {
			capped++
			continue
		}
		r, ok := want[fmt.Sprintf("%s/%d", p.Curve, p.K)]
		if len(ref) > 0 && !ok {
			out.failed++
			out.fail("%s K=%d: no reference point", p.Curve, p.K)
			continue
		}
		if ok && r.Converged && !(math.Abs(p.Accuracy-r.Accuracy) <= referenceTolerance) {
			out.failed++
			out.fail("%s K=%d: accuracy %.9g, reference %.9g", p.Curve, p.K, p.Accuracy, r.Accuracy)
		}
	}
	return capped
}

// writeReference rewrites the kept reference from a pass's points.
func writeReference(root string, pts []sweepPoint) error {
	b, err := json.MarshalIndent(pts, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "perfbench", "figure5_reference.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing reference: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	return nil
}

// Package experiments regenerates the data series behind every figure in
// the paper's evaluation (Sec. 7): Figure 5 (estimation accuracy vs the
// amount of background knowledge, for positive, negative and mixed
// association rules), Figure 6 (the effect of the number of QI attributes
// T in the knowledge), and Figures 7(a)–(c) (running time and iteration
// counts versus knowledge size and data size). It also provides the two
// ablations DESIGN.md calls out: the solver comparison the paper cites
// from Malouf, and the Sec. 5.5 irrelevant-bucket optimization.
//
// The paper's full-size experiment (14,210 records, knowledge sweeps to
// 3·10⁵ rules, 2008-era C++) is scaled down by default so the whole suite
// runs in seconds; Config restores any size. Shapes, not absolute
// numbers, are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
	"privacymaxent/internal/solver"
)

// Config sizes an experiment run.
type Config struct {
	// Records is the synthetic Adult table size. Default 1500 (paper:
	// 14,210).
	Records int
	// Seed drives data generation. Default 1.
	Seed int64
	// Diversity is the bucket size / L parameter. Default 5 (paper).
	Diversity int
	// MinSupport is the rule-support threshold. Default 3 (paper).
	MinSupport int
	// MaxRuleSize caps the QI-subset size mined for knowledge. Default 3
	// (mining all 8 sizes is only needed for Figure 6; the accuracy
	// figures saturate well before that).
	MaxRuleSize int
	// MaxIterations bounds the LBFGS iterations of the accuracy solves.
	// Default 6000; paper-scale sweeps with heavily coupled knowledge can
	// need more to avoid boundary-convergence artifacts in the KL metric.
	MaxIterations int
	// Workers bounds how many independent grid evaluations run
	// concurrently in the sweep figures (the three Figure 5 curves per K,
	// the Figure 6 per-T series, Figure 7bc instance generation). It
	// follows the maxent convention: zero means runtime.GOMAXPROCS(0),
	// negative (or 1) runs sequentially. The timing figures' solves
	// themselves are never run concurrently — wall-clock is their y-axis.
	Workers int
	// AuditDir, when non-empty, writes one solve-audit JSON per grid
	// point of the performance figures (7a/7bc) and per algorithm of the
	// solver ablation into this directory, named after the point
	// (figure7a_k100.json, solvers_gis_k50.json, ...). Audited solves run
	// with trajectory capture, so expect slightly different wall-clock on
	// the timing figures.
	AuditDir string
}

// workerCount resolves Config.Workers following the maxent convention.
func (c Config) workerCount() int {
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (c Config) withDefaults() Config {
	if c.Records <= 0 {
		c.Records = 1500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Diversity <= 0 {
		c.Diversity = 5
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	if c.MaxRuleSize <= 0 {
		c.MaxRuleSize = 3
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 6000
	}
	return c
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
	// Converged reports whether the solve behind this point reached
	// GradTol within the iteration budget (false for capped solves and
	// for closed-form points with nothing to solve, where it is true).
	Converged bool
}

// Series is a named curve, as plotted in the paper's figures.
type Series struct {
	Name   string
	Points []Point
}

// Instance bundles the generated workload every figure shares: the
// original data D, its bucketization D′, the true conditional, and the
// mined rule pool.
type Instance struct {
	Config Config
	Table  *dataset.Table
	Data   *bucket.Bucketized
	Truth  *dataset.Conditional
	Rules  []assoc.Rule

	prepOnce sync.Once
	prep     *core.Prepared
	prepErr  error
}

// NewInstance generates and prepares the workload.
func NewInstance(cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()
	tbl := adult.Generate(adult.Config{Records: cfg.Records, Seed: cfg.Seed})
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: cfg.Diversity, ExemptMostFrequent: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: bucketize: %w", err)
	}
	truth, err := dataset.TrueConditional(tbl, d.Universe())
	if err != nil {
		return nil, fmt.Errorf("experiments: truth: %w", err)
	}
	sizes := make([]int, 0, cfg.MaxRuleSize)
	for k := 1; k <= cfg.MaxRuleSize && k <= tbl.Schema().NumQI(); k++ {
		sizes = append(sizes, k)
	}
	rules, err := assoc.Mine(tbl, assoc.Options{MinSupport: cfg.MinSupport, Sizes: sizes, Workers: cfg.workerCount()})
	if err != nil {
		return nil, fmt.Errorf("experiments: mining: %w", err)
	}
	return &Instance{Config: cfg, Table: tbl, Data: d, Truth: truth, Rules: rules}, nil
}

// quantifier builds the standard pipeline configuration.
func (in *Instance) quantifier() *core.Quantifier {
	return core.New(core.Config{
		Diversity:  in.Config.Diversity,
		MinSupport: in.Config.MinSupport,
		Solve: maxent.Options{
			Solver: solver.Options{MaxIterations: in.Config.MaxIterations, GradTol: 1e-8},
		},
	})
}

// prepared returns the instance's cached core.Prepared: the term space
// and data-invariant base system, built once and shared by every grid
// point of every figure (the base depends only on the published data,
// never on the knowledge). Safe for concurrent use.
func (in *Instance) prepared() (*core.Prepared, error) {
	in.prepOnce.Do(func() {
		in.prep, in.prepErr = in.quantifier().Prepare(context.Background(), in.Data)
	})
	return in.prep, in.prepErr
}

// accuracyAt runs one quantification under the Top-(kPos, kNeg) bound and
// returns the estimation accuracy.
func (in *Instance) accuracyAt(rules []assoc.Rule, kPos, kNeg int) (float64, error) {
	p, err := in.prepared()
	if err != nil {
		return 0, err
	}
	rep, err := p.QuantifyWithRules(context.Background(), rules, core.Bound{KPos: kPos, KNeg: kNeg}, in.Truth, nil)
	if err != nil {
		return 0, err
	}
	return rep.EstimationAccuracy, nil
}

// defaultKSweep produces the K grid for accuracy figures, scaled to the
// available rule pool: 0 plus roughly geometric steps.
func defaultKSweep(maxRules int) []int {
	grid := []int{0, 5, 10, 25, 50, 100, 200, 400, 800, 1600, 3200}
	out := grid[:0]
	for _, k := range grid {
		if k <= maxRules {
			out = append(out, k)
		}
	}
	return out
}

// Figure5 reproduces "Positive and negative association rules":
// estimation accuracy versus K for the K− curve (K negative rules), the
// K+ curve (K positive rules), and the (K+, K−) curve (K/2 of each).
// ks overrides the K grid; nil uses the default sweep.
//
// All three solves share the instance's cached invariant base system
// (only the K knowledge rows are appended per grid point), each curve
// warm-starts from its own previous K point's duals, and the three
// curves of a K point run concurrently under Config.Workers. None of
// this changes the curves: warm starts and system reuse are pure
// performance devices (the MaxEnt optimum is start-independent).
func Figure5(in *Instance, ks ...int) ([]Series, error) {
	pos, neg := assoc.Split(in.Rules)
	maxK := len(pos)
	if len(neg) < maxK {
		maxK = len(neg)
	}
	if len(ks) == 0 {
		ks = defaultKSweep(maxK)
	}
	series := []Series{{Name: "K-"}, {Name: "K+"}, {Name: "(K+, K-)"}}
	// One warm-start chain per curve: curve ci at K seeds from curve ci
	// at the previous K, whose surviving rows are a near-superset.
	warm := make([][]maxent.ConstraintDual, len(series))
	workers := in.Config.workerCount()
	if workers > len(series) {
		workers = len(series)
	}
	sem := make(chan struct{}, workers)
	for _, k := range ks {
		bounds := []core.Bound{
			{KPos: 0, KNeg: k},
			{KPos: k, KNeg: 0},
			{KPos: k / 2, KNeg: k - k/2},
		}
		accs := make([]float64, len(series))
		convs := make([]bool, len(series))
		errs := make([]error, len(series))
		var wg sync.WaitGroup
		for ci := range series {
			wg.Add(1)
			sem <- struct{}{}
			go func(ci int) {
				defer wg.Done()
				defer func() { <-sem }()
				p, err := in.prepared()
				if err != nil {
					errs[ci] = err
					return
				}
				rep, err := p.QuantifyWithRules(context.Background(), in.Rules, bounds[ci], in.Truth, warm[ci])
				if err != nil {
					errs[ci] = err
					return
				}
				accs[ci] = rep.EstimationAccuracy
				convs[ci] = rep.Solution.Stats.Converged
				// Chain duals only from converged solves: a capped solve's
				// endpoint is start-dependent, so seeding the next point
				// from it would change the curve without saving iterations.
				// After a capped point the chain restarts cold.
				if rep.Solution.Stats.Converged {
					warm[ci] = rep.Solution.Duals
				} else {
					warm[ci] = nil
				}
			}(ci)
		}
		wg.Wait()
		for ci, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("figure5 %s K=%d: %w", series[ci].Name, k, err)
			}
		}
		for ci := range series {
			series[ci].Points = append(series[ci].Points, Point{X: float64(k), Y: accs[ci], Converged: convs[ci]})
		}
	}
	return series, nil
}

// Figure6 reproduces "Number of QI attributes in knowledge": estimation
// accuracy versus K where the knowledge contains only rules with exactly
// T QI attributes, one series per T from 1 to maxT. ks overrides the K
// grid; nil uses the default sweep per T.
//
// The per-T series are independent and run concurrently under
// Config.Workers; within a series the K grid is swept sequentially so
// each point can warm-start from the previous one's duals. All solves
// share the instance's cached invariant base system.
func Figure6(in *Instance, maxT int, ks ...int) ([]Series, error) {
	if maxT <= 0 {
		maxT = in.Table.Schema().NumQI()
	}
	series := make([]Series, maxT)
	errs := make([]error, maxT)
	workers := in.Config.workerCount()
	if workers > maxT {
		workers = maxT
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for t := 1; t <= maxT; t++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			defer func() { <-sem }()
			series[t-1], errs[t-1] = in.figure6Series(t, ks)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return series, nil
}

// figure6Series sweeps the K grid for a single T, chaining warm starts
// from one K point to the next.
func (in *Instance) figure6Series(t int, ks []int) (Series, error) {
	rules, err := assoc.Mine(in.Table, assoc.Options{MinSupport: in.Config.MinSupport, Sizes: []int{t}})
	// Workers deliberately unset: the per-T series already run concurrently
	// under Config.Workers, so nested parallel mining would oversubscribe.
	if err != nil {
		return Series{}, fmt.Errorf("figure6 T=%d: %w", t, err)
	}
	pos, neg := assoc.Split(rules)
	maxK := len(pos)
	if len(neg) < maxK {
		maxK = len(neg)
	}
	grid := ks
	if len(grid) == 0 {
		grid = defaultKSweep(2 * maxK)
	}
	s := Series{Name: fmt.Sprintf("T=%d", t)}
	p, err := in.prepared()
	if err != nil {
		return Series{}, err
	}
	var warm []maxent.ConstraintDual
	for _, k := range grid {
		rep, err := p.QuantifyWithRules(context.Background(), rules, core.Bound{KPos: k / 2, KNeg: k - k/2}, in.Truth, warm)
		if err != nil {
			return Series{}, fmt.Errorf("figure6 T=%d K=%d: %w", t, k, err)
		}
		// As in Figure5, only converged solves extend the warm chain.
		if rep.Solution.Stats.Converged {
			warm = rep.Solution.Duals
		} else {
			warm = nil
		}
		s.Points = append(s.Points, Point{X: float64(k), Y: rep.EstimationAccuracy, Converged: rep.Solution.Stats.Converged})
	}
	return s, nil
}

// solveWithTopK builds the constraint system for the Top-K mixed bound
// and solves it without decomposition (as the paper's performance section
// notes, the Sec. 5.5 optimizations are off in Figure 7), returning the
// solver statistics. The invariant base comes from the cached Prepared
// overlay (only the K knowledge rows are appended per call), but the
// solve itself is deliberately cold — no warm start, no concurrency —
// because Figure 7's y-axis is exactly this solver cost. When
// Config.AuditDir is set, the solve is audited under auditName.
func (in *Instance) solveWithTopK(k int, auditName string) (maxent.Stats, error) {
	p, err := in.prepared()
	if err != nil {
		return maxent.Stats{}, err
	}
	sys := p.CloneSystem()
	selected := assoc.TopK(in.Rules, k/2, k-k/2)
	for i := range selected {
		kn := selected[i].Knowledge()
		c, err := kn.Constraint(p.Space())
		if err != nil {
			return maxent.Stats{}, err
		}
		if err := sys.Add(c); err != nil {
			return maxent.Stats{}, err
		}
	}
	// Figure 7 measures the paper's LBFGS, so the method is pinned rather
	// than left to Auto's per-component choice.
	opts := maxent.Options{
		Algorithm: maxent.LBFGS,
		Solver:    solver.Options{MaxIterations: 3000, GradTol: 1e-6},
	}
	opts.CaptureTrace = in.Config.AuditDir != ""
	sol, err := maxent.SolveContext(context.Background(), sys, opts)
	if err != nil {
		return maxent.Stats{}, err
	}
	if err := in.writeAudit(auditName, sys, sol); err != nil {
		return maxent.Stats{}, err
	}
	return sol.Stats, nil
}

// writeAudit persists one per-point solve audit under Config.AuditDir
// (no-op when unset).
func (in *Instance) writeAudit(name string, sys *constraint.System, sol *maxent.Solution) error {
	if in.Config.AuditDir == "" || name == "" {
		return nil
	}
	a := audit.New(sys, sol, audit.Options{})
	path := filepath.Join(in.Config.AuditDir, name+".json")
	if err := a.WriteFile(path); err != nil {
		return fmt.Errorf("experiments: audit %s: %w", name, err)
	}
	return nil
}

// Figure7a reproduces "Performance vs. Knowledge": running time (seconds)
// and iteration count versus the number of background-knowledge
// constraints, on a fixed data set. The x grid is geometric, matching the
// paper's log-scaled axis.
func Figure7a(in *Instance) ([]Series, error) {
	grid := []int{10, 30, 100, 300, 1000, 3000, 10000}
	timeSeries := Series{Name: "Running time (seconds)"}
	iterSeries := Series{Name: "Number of iterations"}
	for _, k := range grid {
		if k > len(in.Rules) {
			break
		}
		stats, err := in.solveWithTopK(k, fmt.Sprintf("figure7a_k%d", k))
		if err != nil {
			return nil, fmt.Errorf("figure7a K=%d: %w", k, err)
		}
		timeSeries.Points = append(timeSeries.Points, Point{X: float64(k), Y: stats.Duration.Seconds()})
		iterSeries.Points = append(iterSeries.Points, Point{X: float64(k), Y: float64(stats.Iterations)})
	}
	return []Series{timeSeries, iterSeries}, nil
}

// Figure7bc reproduces "Running time vs. Data Size" and "Iteration vs.
// Data Size": for each knowledge budget (number of constraints), sweep
// the number of buckets by growing the data set. It returns the running
// time series (Figure 7b) and iteration series (Figure 7c), one per
// knowledge budget.
func Figure7bc(cfg Config, bucketCounts []int, constraintCounts []int) (timeSeries, iterSeries []Series, err error) {
	cfg = cfg.withDefaults()
	if len(bucketCounts) == 0 {
		bucketCounts = []int{50, 100, 200, 400}
	}
	if len(constraintCounts) == 0 {
		constraintCounts = []int{0, 100, 1000}
	}
	for _, kc := range constraintCounts {
		timeSeries = append(timeSeries, Series{Name: fmt.Sprintf("#Constraints = %d", kc)})
		iterSeries = append(iterSeries, Series{Name: fmt.Sprintf("#Constraints = %d", kc)})
	}
	// Instance generation (synthesize, bucketize, mine) is independent
	// across data sizes and runs concurrently under Config.Workers; the
	// timed solves below stay sequential so wall-clock measurements do
	// not contend for cores.
	ins := make([]*Instance, len(bucketCounts))
	errs := make([]error, len(bucketCounts))
	workers := cfg.workerCount()
	if workers > len(bucketCounts) {
		workers = len(bucketCounts)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, nb := range bucketCounts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i, nb int) {
			defer wg.Done()
			defer func() { <-sem }()
			sub := cfg
			sub.Records = nb * cfg.Diversity
			// Instances already generate concurrently here; serial mining
			// inside each avoids multiplying the two worker budgets.
			sub.Workers = -1
			ins[i], errs[i] = NewInstance(sub)
		}(i, nb)
	}
	wg.Wait()
	for i, nb := range bucketCounts {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("figure7bc buckets=%d: %w", nb, errs[i])
		}
	}
	for i := range bucketCounts {
		in := ins[i]
		for ci, kc := range constraintCounts {
			stats, err := in.solveWithTopK(kc, fmt.Sprintf("figure7bc_b%d_k%d", bucketCounts[i], kc))
			if err != nil {
				return nil, nil, fmt.Errorf("figure7bc buckets=%d constraints=%d: %w", bucketCounts[i], kc, err)
			}
			x := float64(in.Data.NumBuckets())
			timeSeries[ci].Points = append(timeSeries[ci].Points, Point{X: x, Y: stats.Duration.Seconds()})
			iterSeries[ci].Points = append(iterSeries[ci].Points, Point{X: x, Y: float64(stats.Iterations)})
		}
	}
	return timeSeries, iterSeries, nil
}

// AlgorithmComparison is the Malouf-style ablation the paper cites in
// Sec. 3.3: solve the same Top-K problem with each dual algorithm and
// report (iterations, seconds, max violation).
type AlgorithmResult struct {
	Algorithm    maxent.Algorithm
	Iterations   int
	Duration     time.Duration
	MaxViolation float64
	Converged    bool
}

// CompareAlgorithms runs LBFGS, GIS, steepest descent and Newton on the
// instance's Top-K problem.
func CompareAlgorithms(in *Instance, k int, algs []maxent.Algorithm) ([]AlgorithmResult, error) {
	if len(algs) == 0 {
		algs = []maxent.Algorithm{maxent.LBFGS, maxent.GIS, maxent.IIS, maxent.SteepestDescent, maxent.Newton}
	}
	// The system is knowledge-dependent but algorithm-independent: build
	// it once from the cached invariant base and reuse it for every
	// algorithm (Solve never mutates its input system).
	p, err := in.prepared()
	if err != nil {
		return nil, err
	}
	sys := p.CloneSystem()
	selected := assoc.TopK(in.Rules, k/2, k-k/2)
	for i := range selected {
		kn := selected[i].Knowledge()
		c, err := kn.Constraint(p.Space())
		if err != nil {
			return nil, err
		}
		if err := sys.Add(c); err != nil {
			return nil, err
		}
	}
	var out []AlgorithmResult
	for _, alg := range algs {
		// Decompose so each method only sees the relevant buckets'
		// constraints.
		sol, err := maxent.SolveContext(context.Background(), sys, maxent.Options{
			Algorithm:    alg,
			Decompose:    true,
			CaptureTrace: in.Config.AuditDir != "",
			Solver:       solver.Options{MaxIterations: 3000, GradTol: 1e-7},
		})
		if err != nil {
			return nil, fmt.Errorf("algorithm %v: %w", alg, err)
		}
		if err := in.writeAudit(fmt.Sprintf("solvers_%s_k%d", alg, k), sys, sol); err != nil {
			return nil, err
		}
		out = append(out, AlgorithmResult{
			Algorithm:    alg,
			Iterations:   sol.Stats.Iterations,
			Duration:     sol.Stats.Duration,
			MaxViolation: sol.Stats.MaxViolation,
			Converged:    sol.Stats.Converged,
		})
	}
	return out, nil
}

// DecompositionAblation measures the Sec. 5.5 optimization: the same
// Top-K solve with and without the irrelevant-bucket decomposition.
type DecompositionResult struct {
	Decomposed        bool
	ActiveVariables   int
	IrrelevantBuckets int
	Duration          time.Duration
	Accuracy          float64
	// Timings is the per-stage breakdown of the quantification (prepare,
	// select, formulate, solve, score) — the Figure-7 running-time
	// decomposition.
	Timings core.Timings
}

// CompareDecomposition quantifies with and without decomposition.
func CompareDecomposition(in *Instance, k int) ([]DecompositionResult, error) {
	var out []DecompositionResult
	for _, dec := range []bool{true, false} {
		q := core.New(core.Config{
			Diversity:   in.Config.Diversity,
			MinSupport:  in.Config.MinSupport,
			NoDecompose: !dec,
			Solve: maxent.Options{
				Solver: solver.Options{MaxIterations: 6000, GradTol: 1e-8},
			},
		})
		start := time.Now()
		p, err := q.Prepare(context.Background(), in.Data)
		if err != nil {
			return nil, err
		}
		prepDur := time.Since(start)
		rep, err := p.QuantifyWithRules(context.Background(), in.Rules, core.Bound{KPos: k / 2, KNeg: k - k/2}, in.Truth, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, DecompositionResult{
			Decomposed:        dec,
			ActiveVariables:   rep.Solution.Stats.ActiveVariables,
			IrrelevantBuckets: rep.Solution.Stats.IrrelevantBuckets,
			Duration:          rep.Solution.Stats.Duration,
			Accuracy:          rep.EstimationAccuracy,
			Timings:           append(core.Timings{{Stage: core.StagePrepare, Duration: prepDur}}, rep.Timings...),
		})
	}
	return out, nil
}

// StageBreakdown runs one Top-K quantification per knowledge budget and
// returns the per-stage running time as series (one per pipeline stage,
// x = constraint count) — the Figure-7 running-time panel refined by
// stage, taken from Report.Timings instead of external re-timing. The
// budgets share the instance's prepared invariant base, so formulate
// covers only each budget's knowledge rows.
func StageBreakdown(in *Instance, ks []int) ([]Series, error) {
	if len(ks) == 0 {
		ks = []int{10, 30, 100, 300, 1000}
	}
	stages := []string{core.StageSelect, core.StageFormulate, core.StageSolve, core.StageScore}
	series := make([]Series, len(stages))
	for i, st := range stages {
		series[i] = Series{Name: st}
	}
	p, err := in.prepared()
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k > len(in.Rules) {
			break
		}
		rep, err := p.QuantifyWithRules(context.Background(), in.Rules, core.Bound{KPos: k / 2, KNeg: k - k/2}, in.Truth, nil)
		if err != nil {
			return nil, fmt.Errorf("stage breakdown K=%d: %w", k, err)
		}
		for i, st := range stages {
			series[i].Points = append(series[i].Points, Point{X: float64(k), Y: rep.Timings.Get(st).Seconds()})
		}
	}
	return series, nil
}

// BaselineAccuracy reports the no-knowledge estimation accuracy plus
// bucket-level diversity scores, the reference point of every curve.
func BaselineAccuracy(in *Instance) (accuracy float64, distinctL int, entropyL float64, err error) {
	acc, err := in.accuracyAt(in.Rules, 0, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	return acc, metrics.DistinctDiversity(in.Data), metrics.EntropyDiversity(in.Data), nil
}

// Command pmaxent quantifies the privacy of a bucketized publication of
// microdata using Privacy-MaxEnt.
//
// Three modes:
//
//	pmaxent -demo
//	    Run on the paper's built-in Figure 1 example.
//
//	pmaxent -input data.csv -sa Disease [-id Name,SSN] [-l 5] \
//	        [-kpos 50] [-kneg 50] [-minsupport 3] [-sizes 1,2] \
//	        [-algorithm auto] [-top 10] [-publish out.json] \
//	        [-export-knowledge k.json]
//	    Bucketize the CSV to L-diversity with the Anatomy method, mine the
//	    Top-(K+, K−) strongest association rules from the original data as
//	    the assumed adversary background knowledge, solve the MaxEnt
//	    problem, and print the privacy report (estimation accuracy against
//	    the original data, maximum disclosure, the riskiest QI tuples).
//	    -publish saves the published view; -export-knowledge saves the
//	    applied knowledge statements for auditing and replay.
//
//	pmaxent -published out.json [-knowledge k.json] [-algorithm auto] [-top 10]
//	    Re-analyze an existing publication without the original data:
//	    knowledge comes from a JSON statement file
//	    ([{"if": {"Gender": "male"}, "then": "Breast Cancer", "p": 0}, ...]).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/telemetry"
)

// options collects the CLI configuration.
type options struct {
	input           string
	saName          string
	idNames         string
	published       string
	knowledgeFile   string
	eps             float64
	publishOut      string
	exportKnowledge string
	diversity       int
	kPos, kNeg      int
	minSupport      int
	sizes           string
	algorithm       string
	top             int
	demo            bool
	trace           bool
	traceOut        string
	metricsOut      string
	pprofAddr       string
	auditOut        string
	solveLog        string
	strict          bool
	feasTol         float64
}

func main() {
	var o options
	flag.StringVar(&o.input, "input", "", "input CSV file (first row is the header)")
	flag.StringVar(&o.saName, "sa", "", "name of the sensitive attribute column")
	flag.StringVar(&o.idNames, "id", "", "comma-separated identifier columns (removed before publishing)")
	flag.StringVar(&o.published, "published", "", "published-view JSON to analyze instead of a CSV")
	flag.StringVar(&o.knowledgeFile, "knowledge", "", "knowledge-statement JSON applied in -published mode")
	flag.Float64Var(&o.eps, "eps", 0, "vagueness of the knowledge (Sec. 4.5): statements become ±eps boxes instead of equalities")
	flag.StringVar(&o.publishOut, "publish", "", "write the published view as JSON to this path")
	flag.StringVar(&o.exportKnowledge, "export-knowledge", "", "write the applied knowledge statements as JSON to this path")
	flag.IntVar(&o.diversity, "l", 5, "L-diversity parameter and bucket size")
	flag.IntVar(&o.kPos, "kpos", 0, "number of positive association rules the adversary knows (K+)")
	flag.IntVar(&o.kNeg, "kneg", 0, "number of negative association rules the adversary knows (K-)")
	flag.IntVar(&o.minSupport, "minsupport", 3, "minimum association-rule support (records)")
	flag.StringVar(&o.sizes, "sizes", "", "comma-separated QI-subset sizes to mine (default: all)")
	flag.StringVar(&o.algorithm, "algorithm", "auto", "dual solver: auto (Newton or LBFGS per component), lbfgs, gis, iis, steepest, newton")
	flag.IntVar(&o.top, "top", 10, "number of riskiest QI tuples to print")
	flag.BoolVar(&o.demo, "demo", false, "run on the paper's built-in example instead of a file")
	flag.BoolVar(&o.trace, "trace", false, "emit a JSON-lines span trace and metrics snapshot to stderr")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the JSON-lines span trace to this file (implies tracing)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write a Prometheus-style metrics snapshot to this file")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	flag.StringVar(&o.auditOut, "audit-out", "", "write the solve audit (per-family residuals, binding knowledge, trajectory) as JSON to this file")
	flag.StringVar(&o.solveLog, "solve-log", "", "write structured solve lifecycle events as JSON lines to this file")
	flag.BoolVar(&o.strict, "strict", false, "exit non-zero when the solve did not converge or violates -feastol")
	flag.Float64Var(&o.feasTol, "feastol", 1e-6, "feasibility tolerance for the audit and the -strict health check")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "pmaxent:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	alg, err := maxent.ParseAlgorithm(o.algorithm)
	if err != nil {
		return err
	}
	ctx, finish, err := setupTelemetry(o)
	if err != nil {
		return err
	}
	if o.published != "" {
		err = runPublished(ctx, w, o, alg)
	} else {
		err = runOriginal(ctx, w, o, alg)
	}
	if ferr := finish(); err == nil {
		err = ferr
	}
	return err
}

// setupTelemetry builds the run context from the observability flags: a
// tracer when -trace/-trace-out is set, a metrics registry when any of
// -trace/-metrics-out/-pprof is set, a structured solve-event logger for
// -solve-log, and the pprof+expvar HTTP server for -pprof. The returned
// finish func flushes the metrics snapshot and closes the log files.
func setupTelemetry(o options) (context.Context, func() error, error) {
	ctx := context.Background()
	finish := func() error { return nil }
	needMetrics := o.trace || o.metricsOut != "" || o.pprofAddr != ""
	needTrace := o.trace || o.traceOut != ""
	if !needMetrics && !needTrace && o.solveLog == "" {
		return ctx, finish, nil
	}

	var logFile *os.File
	if o.solveLog != "" {
		f, err := os.Create(o.solveLog)
		if err != nil {
			return nil, nil, fmt.Errorf("creating solve log: %w", err)
		}
		logFile = f
		ctx = telemetry.WithLogger(ctx, slog.New(slog.NewJSONHandler(f, nil)))
	}

	var reg *telemetry.Registry
	if needMetrics {
		reg = telemetry.NewRegistry()
		ctx = telemetry.WithMetrics(ctx, reg)
	}
	if o.pprofAddr != "" {
		telemetry.PublishExpvar("pmaxent", reg)
		ln := o.pprofAddr
		go func() {
			// net/http/pprof and expvar register on the default mux.
			if err := http.ListenAndServe(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pmaxent: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof and expvar on http://%s/debug/pprof/ and /debug/vars\n", ln)
	}

	var traceFile *os.File
	if needTrace {
		traceW := io.Writer(os.Stderr)
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return nil, nil, fmt.Errorf("creating trace output: %w", err)
			}
			traceFile, traceW = f, f
		}
		ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(telemetry.NewJSONSink(traceW)))
	}

	finish = func() error {
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				return fmt.Errorf("closing solve log: %w", err)
			}
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				return fmt.Errorf("closing trace output: %w", err)
			}
		}
		if o.metricsOut != "" {
			if err := writeFile(o.metricsOut, reg.WriteProm); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		} else if o.trace {
			return reg.WriteProm(os.Stderr)
		}
		return nil
	}
	return ctx, finish, nil
}

// runOriginal covers -demo and -input: the full pipeline from original
// data, with ground-truth scoring.
func runOriginal(ctx context.Context, w io.Writer, o options, alg maxent.Algorithm) error {
	var tbl *dataset.Table
	switch {
	case o.demo:
		tbl = dataset.PaperExample()
		if o.diversity == 5 {
			o.diversity = 3 // the 10-record example cannot fill buckets of 5 distinctly
		}
		if o.minSupport == 3 {
			o.minSupport = 1
		}
	case o.input == "":
		return fmt.Errorf("one of -input, -published or -demo is required")
	default:
		if o.saName == "" {
			return fmt.Errorf("-sa is required with -input")
		}
		roles := map[string]dataset.Role{o.saName: dataset.Sensitive}
		for _, id := range splitNonEmpty(o.idNames) {
			roles[id] = dataset.Identifier
		}
		f, err := os.Open(o.input)
		if err != nil {
			return err
		}
		defer f.Close()
		var rerr error
		tbl, rerr = dataset.ReadCSV(f, roles)
		if rerr != nil {
			return rerr
		}
		if tbl.Schema().SAIndex() < 0 {
			return fmt.Errorf("sensitive column %q not found in header", o.saName)
		}
	}

	ruleSizes, err := parseSizes(o.sizes)
	if err != nil {
		return err
	}
	q := core.New(core.Config{
		Diversity:  o.diversity,
		MinSupport: o.minSupport,
		RuleSizes:  ruleSizes,
		Solve:      maxent.Options{Algorithm: alg},
		Audit:      auditConfig(o),
	})

	pub, _, err := q.BucketizeContext(ctx, tbl)
	if err != nil {
		return fmt.Errorf("bucketize: %w", err)
	}
	rules, err := q.MineRulesContext(ctx, tbl)
	if err != nil {
		return fmt.Errorf("mining rules: %w", err)
	}
	truth, err := dataset.TrueConditional(tbl, pub.Universe())
	if err != nil {
		return err
	}
	rep, err := quantifyOnce(ctx, q, pub, func(p *core.Prepared) (*core.Report, error) {
		return p.QuantifyWithRules(ctx, rules, core.Bound{KPos: o.kPos, KNeg: o.kNeg}, truth, nil)
	})
	if err != nil {
		return err
	}

	if o.publishOut != "" {
		if err := writeFile(o.publishOut, func(f io.Writer) error { return bucket.WriteJSON(f, pub) }); err != nil {
			return fmt.Errorf("writing published view: %w", err)
		}
		fmt.Fprintf(w, "published view written to %s\n", o.publishOut)
	}
	if o.exportKnowledge != "" {
		if err := writeFile(o.exportKnowledge, func(f io.Writer) error {
			return constraint.WriteKnowledgeJSON(f, tbl.Schema(), rep.Knowledge)
		}); err != nil {
			return fmt.Errorf("writing knowledge: %w", err)
		}
		fmt.Fprintf(w, "knowledge statements written to %s\n", o.exportKnowledge)
	}

	printReport(w, tbl.Schema(), tbl.Len(), rep, o.top)
	if err := writeAudit(w, o, rep); err != nil {
		return err
	}
	return checkSolveHealth(o, rep)
}

// runPublished analyzes an existing publication JSON with an explicit
// knowledge file; no ground truth is available.
func runPublished(ctx context.Context, w io.Writer, o options, alg maxent.Algorithm) error {
	f, err := os.Open(o.published)
	if err != nil {
		return err
	}
	defer f.Close()
	pub, err := bucket.ReadJSON(f)
	if err != nil {
		return err
	}
	var knowledge []constraint.DistributionKnowledge
	if o.knowledgeFile != "" {
		kf, err := os.Open(o.knowledgeFile)
		if err != nil {
			return err
		}
		defer kf.Close()
		knowledge, err = constraint.ParseKnowledgeJSON(kf, pub.Schema())
		if err != nil {
			return err
		}
	}
	q := core.New(core.Config{Solve: maxent.Options{Algorithm: alg}, Audit: auditConfig(o)})
	rep, err := quantifyOnce(ctx, q, pub, func(p *core.Prepared) (*core.Report, error) {
		return p.QuantifyWithOptions(ctx, core.QuantifyOptions{Knowledge: knowledge, Eps: o.eps})
	})
	if err != nil {
		return err
	}
	printReport(w, pub.Schema(), pub.N(), rep, o.top)
	if err := writeAudit(w, o, rep); err != nil {
		return err
	}
	return checkSolveHealth(o, rep)
}

// quantifyOnce prepares pub for the run's one quantification and runs
// solve over it. The report's timings lead with the base build as the
// prepare stage, so the stage-timings line accounts for all of it.
func quantifyOnce(ctx context.Context, q *core.Quantifier, pub *bucket.Bucketized, solve func(*core.Prepared) (*core.Report, error)) (*core.Report, error) {
	start := time.Now()
	p, err := q.Prepare(ctx, pub)
	if err != nil {
		return nil, err
	}
	prepDur := time.Since(start)
	rep, err := solve(p)
	if err != nil {
		return nil, err
	}
	rep.Timings = append(core.Timings{{Stage: core.StagePrepare, Duration: prepDur}}, rep.Timings...)
	return rep, nil
}

// auditConfig turns the -audit-out flag into the core audit option.
func auditConfig(o options) *audit.Options {
	if o.auditOut == "" {
		return nil
	}
	return &audit.Options{Tolerance: o.feasTol}
}

// writeAudit persists the solve audit for -audit-out. The vague (-eps)
// mode solves an inequality program whose solution carries no equality
// audit; asking for one there is a user error.
func writeAudit(w io.Writer, o options, rep *core.Report) error {
	if o.auditOut == "" {
		return nil
	}
	if rep.Audit == nil {
		return fmt.Errorf("-audit-out: no audit available for this analysis mode (vague -eps solves are not audited)")
	}
	if err := rep.Audit.WriteFile(o.auditOut); err != nil {
		return fmt.Errorf("writing audit: %w", err)
	}
	fmt.Fprintf(w, "solve audit written to %s\n", o.auditOut)
	return nil
}

// checkSolveHealth is the post-run health gate: an unconverged solve or a
// constraint violation above -feastol always earns a loud stderr warning,
// and fails the run under -strict.
func checkSolveHealth(o options, rep *core.Report) error {
	st := rep.Solution.Stats
	tol := o.feasTol
	if tol <= 0 {
		tol = 1e-6
	}
	var problems []string
	if !st.Converged {
		problems = append(problems, "solver did not converge")
	}
	if st.MaxViolation > tol {
		problems = append(problems, fmt.Sprintf("max constraint violation %.3e exceeds tolerance %.1e", st.MaxViolation, tol))
	}
	if len(problems) == 0 {
		return nil
	}
	msg := strings.Join(problems, "; ")
	if o.strict {
		return fmt.Errorf("solve health check failed: %s", msg)
	}
	fmt.Fprintf(os.Stderr, "pmaxent: WARNING: %s (rerun with -strict to fail, -audit-out for diagnosis)\n", msg)
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range splitNonEmpty(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printReport(w io.Writer, schema *dataset.Schema, records int, rep *core.Report, top int) {
	fmt.Fprintf(w, "Privacy-MaxEnt report\n")
	fmt.Fprintf(w, "  records:               %d\n", records)
	fmt.Fprintf(w, "  knowledge bound:       Top-(K+=%d, K-=%d) association rules\n", rep.Bound.KPos, rep.Bound.KNeg)
	fmt.Fprintf(w, "  knowledge applied:     %d constraints\n", len(rep.Knowledge))
	st := rep.Solution.Stats
	fmt.Fprintf(w, "  solver:                %s\n", st.String())
	fmt.Fprintf(w, "  presolve:              %d variables fixed, %d solved numerically\n", st.FixedVariables, st.ActiveVariables)
	fmt.Fprintf(w, "  irrelevant buckets:    %d (closed-form, Sec. 5.5)\n", st.IrrelevantBuckets)
	if st.ReusedComponents > 0 || st.DirtyComponents > 0 {
		fmt.Fprintf(w, "  delta:                 %d components reused from baseline, %d re-solved\n", st.ReusedComponents, st.DirtyComponents)
	}
	if st.Workers > 1 || st.KernelWorkers > 1 {
		fmt.Fprintf(w, "  parallelism:           %d workers over %d components, %d kernel shards\n", st.Workers, st.Components, st.KernelWorkers)
	}
	if len(rep.Timings) > 0 {
		fmt.Fprintf(w, "  stage timings:         %s (total %v)\n", rep.Timings, rep.Timings.Total().Round(1000))
	}
	fmt.Fprintf(w, "\nPrivacy under this bound:\n")
	if rep.EstimationAccuracy >= 0 {
		fmt.Fprintf(w, "  estimation accuracy:   %.6g (weighted KL truth vs estimate; lower = less privacy)\n", rep.EstimationAccuracy)
	} else {
		fmt.Fprintf(w, "  estimation accuracy:   n/a (no original data)\n")
	}
	fmt.Fprintf(w, "  max disclosure:        %.4f\n", rep.MaxDisclosure)
	fmt.Fprintf(w, "  posterior entropy:     %.4f bits\n", rep.PosteriorEntropy)

	// Riskiest QI tuples by best-guess confidence.
	u := rep.Posterior.Universe()
	type risk struct {
		qid  int
		sa   int
		conf float64
	}
	risks := make([]risk, 0, u.Len())
	for qid := 0; qid < u.Len(); qid++ {
		best, arg := 0.0, 0
		for s := 0; s < rep.Posterior.NumSA(); s++ {
			if p := rep.Posterior.P(qid, s); p > best {
				best, arg = p, s
			}
		}
		risks = append(risks, risk{qid: qid, sa: arg, conf: best})
	}
	sort.Slice(risks, func(i, j int) bool {
		if risks[i].conf != risks[j].conf {
			return risks[i].conf > risks[j].conf
		}
		return risks[i].qid < risks[j].qid
	})
	if top > len(risks) {
		top = len(risks)
	}
	fmt.Fprintf(w, "\nRiskiest QI tuples (adversary's best guess):\n")
	sa := schema.SA()
	for _, r := range risks[:top] {
		fmt.Fprintf(w, "  %-40s => %-20s %.3f\n", u.Display(r.qid), sa.Value(r.sa), r.conf)
	}
	if len(rep.Knowledge) > 0 {
		limit := len(rep.Knowledge)
		if limit > 5 {
			limit = 5
		}
		fmt.Fprintf(w, "\nStrongest knowledge applied (first %d):\n", limit)
		for _, k := range rep.Knowledge[:limit] {
			fmt.Fprintf(w, "  P(%s | %s) = %.3f\n", sa.Value(k.SA), describeCondition(schema, k), k.P)
		}
	}

	// Shadow prices: the knowledge rows with the largest |λ| shape the
	// posterior the most.
	var influential []maxent.ConstraintDual
	for _, dd := range rep.Solution.Duals {
		if dd.Kind == constraint.Knowledge {
			influential = append(influential, dd)
		}
	}
	if len(influential) > 0 {
		sort.Slice(influential, func(i, j int) bool {
			return abs(influential[i].Lambda) > abs(influential[j].Lambda)
		})
		limit := len(influential)
		if limit > 3 {
			limit = 3
		}
		fmt.Fprintf(w, "\nMost influential knowledge (by |dual multiplier|):\n")
		for _, dd := range influential[:limit] {
			fmt.Fprintf(w, "  %-60s λ=%+.3f\n", dd.Label, dd.Lambda)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func describeCondition(schema *dataset.Schema, k constraint.DistributionKnowledge) string {
	parts := make([]string, len(k.Attrs))
	for i, a := range k.Attrs {
		parts[i] = fmt.Sprintf("%s=%s", schema.Attr(a).Name, schema.Attr(a).Value(k.Values[i]))
	}
	return strings.Join(parts, ", ")
}

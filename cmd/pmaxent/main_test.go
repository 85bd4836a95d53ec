package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/dataset"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1, 2,3")
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseSizes = %v, %v", got, err)
	}
	if out, err := parseSizes(""); err != nil || out != nil {
		t.Fatalf("empty sizes = %v, %v", out, err)
	}
	if _, err := parseSizes("1,x"); err == nil {
		t.Fatal("expected error for non-numeric size")
	}
}

func TestSplitNonEmpty(t *testing.T) {
	got := splitNonEmpty(" a, ,b ,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("splitNonEmpty = %v", got)
	}
}

func TestRunDemo(t *testing.T) {
	var buf bytes.Buffer
	o := options{demo: true, diversity: 5, minSupport: 3, kPos: 1, kNeg: 2, top: 5, algorithm: "lbfgs"}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Privacy-MaxEnt report", "Top-(K+=1, K-=2)", "Riskiest QI tuples"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func writePaperCSV(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	var sb strings.Builder
	if err := dataset.WriteCSV(&sb, dataset.PaperExample()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCSVFile(t *testing.T) {
	path := writePaperCSV(t)
	var buf bytes.Buffer
	o := options{
		input: path, saName: "Disease", idNames: "Name",
		diversity: 3, kPos: 1, kNeg: 1, minSupport: 1,
		sizes: "1", algorithm: "gis", top: 3,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "knowledge applied:     2 constraints") {
		t.Fatalf("unexpected report:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writePaperCSV(t)
	cases := []options{
		{},                            // no mode selected
		{input: path},                 // -input without -sa
		{input: path, saName: "Nope"}, // missing SA column
		{algorithm: "simplex"},        // bad algorithm
		{published: "/no/such/file"},  // bad published path
		{input: "/no/such.csv", saName: "Disease"},                      // bad csv path
		{input: path, saName: "Disease", idNames: "Name", sizes: "1,1"}, // repeated rule size
	}
	for i, o := range cases {
		if o.diversity == 0 {
			o.diversity = 3
		}
		if o.minSupport == 0 {
			o.minSupport = 1
		}
		var buf bytes.Buffer
		if err := run(&buf, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestPublishAndReanalyze is the full round trip: publish a CSV with
// exported knowledge, then re-analyze the publication without the
// original data.
func TestPublishAndReanalyze(t *testing.T) {
	path := writePaperCSV(t)
	dir := t.TempDir()
	pubPath := filepath.Join(dir, "published.json")
	kPath := filepath.Join(dir, "knowledge.json")

	var buf bytes.Buffer
	o := options{
		input: path, saName: "Disease", idNames: "Name",
		diversity: 3, kNeg: 2, minSupport: 1,
		publishOut: pubPath, exportKnowledge: kPath, top: 3,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{pubPath, kPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("expected output file %s: %v", p, err)
		}
	}

	buf.Reset()
	o2 := options{published: pubPath, knowledgeFile: kPath, top: 3}
	if err := run(&buf, o2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "knowledge applied:     2 constraints") {
		t.Fatalf("reanalysis lost knowledge:\n%s", out)
	}
	if !strings.Contains(out, "estimation accuracy:   n/a") {
		t.Fatalf("reanalysis should have no ground truth:\n%s", out)
	}
	// And without knowledge.
	buf.Reset()
	if err := run(&buf, options{published: pubPath, top: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "knowledge applied:     0 constraints") {
		t.Fatalf("unexpected report:\n%s", buf.String())
	}
}

// TestTraceAndMetricsOut: -trace-out writes a JSON-lines span trace
// covering every pipeline stage, -metrics-out a Prometheus-style snapshot
// with the solver series, and the report gains a stage-timings line.
func TestTraceAndMetricsOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var buf bytes.Buffer
	o := options{
		demo: true, diversity: 5, minSupport: 3, kPos: 2, kNeg: 2, top: 3,
		traceOut: tracePath, metricsOut: metricsPath,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stage timings:") {
		t.Fatalf("report missing stage timings:\n%s", buf.String())
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	spans := map[string]int{}
	sc := bufio.NewScanner(tf)
	for sc.Scan() {
		var ev struct {
			Name  string  `json:"name"`
			DurUS float64 `json:"dur_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		spans[ev.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"core.bucketize", "core.mine_rules", "core.select_rules",
		"core.formulate", "maxent.solve", "maxent.presolve", "core.score",
	} {
		if spans[name] == 0 {
			t.Errorf("trace missing %q spans (got %v)", name, spans)
		}
	}

	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"pmaxent_solve_iterations", "pmaxent_solve_evaluations",
		"pmaxent_solve_duration_seconds", "pmaxent_decompose_buckets_total",
		"pmaxent_decompose_buckets_closed_form_total",
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("metrics snapshot missing %q", series)
		}
	}
}

// TestAuditOutAndSolveLog: -audit-out writes the full solve audit (family
// residual breakdown, labeled top violations, binding knowledge by |λ|,
// trajectory ending at Stats.Iterations) and -solve-log a JSONL stream of
// solve lifecycle events.
func TestAuditOutAndSolveLog(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.json")
	logPath := filepath.Join(dir, "events.jsonl")
	var buf bytes.Buffer
	// kPos=5 reaches past the confidence-1.0 rules (which presolve fixes
	// away) to a fractional rule that must survive to the numerical solve
	// and bind.
	o := options{
		demo: true, diversity: 5, minSupport: 3, kPos: 5, kNeg: 2, top: 3,
		auditOut: auditPath, solveLog: logPath,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "solve audit written to") {
		t.Fatalf("report does not mention the audit:\n%s", buf.String())
	}

	a, err := audit.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Families) == 0 {
		t.Fatal("audit has no family breakdown")
	}
	fams := map[string]bool{}
	for _, f := range a.Families {
		fams[f.Family] = true
	}
	for _, want := range []string{"QI-invariant", "SA-invariant", "knowledge"} {
		if !fams[want] {
			t.Errorf("audit missing family %q (got %v)", want, fams)
		}
	}
	if len(a.TopViolations) == 0 || a.TopViolations[0].Label == "" {
		t.Fatalf("audit top violations unlabeled: %+v", a.TopViolations)
	}
	if len(a.BindingKnowledge) == 0 {
		t.Fatal("audit identifies no binding knowledge rule")
	}
	if len(a.Trajectory) == 0 {
		t.Fatal("audit has no trajectory")
	}
	if last := a.Trajectory[len(a.Trajectory)-1]; last.Index != a.Iterations {
		t.Fatalf("final trajectory index %d != iterations %d", last.Index, a.Iterations)
	}

	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	msgs := map[string]int{}
	sc := bufio.NewScanner(lf)
	for sc.Scan() {
		var ev struct {
			Msg  string `json:"msg"`
			Time string `json:"time"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad solve-log line %q: %v", sc.Text(), err)
		}
		if ev.Time == "" {
			t.Fatalf("solve-log line missing timestamp: %q", sc.Text())
		}
		msgs[ev.Msg]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solve.start", "presolve", "solve.done"} {
		if msgs[want] == 0 {
			t.Errorf("solve log missing %q events (got %v)", want, msgs)
		}
	}
}

// TestStrictMode: the health gate fails a run whose solution violates the
// feasibility tolerance only under -strict.
func TestStrictMode(t *testing.T) {
	base := options{demo: true, diversity: 5, minSupport: 3, kPos: 2, kNeg: 2, top: 3}

	// An impossible tolerance makes any numerical solve "violating".
	o := base
	o.feasTol = 1e-300
	var buf bytes.Buffer
	if err := run(&buf, o); err != nil {
		t.Fatalf("without -strict a violation must only warn: %v", err)
	}

	o.strict = true
	buf.Reset()
	err := run(&buf, o)
	if err == nil {
		t.Fatal("-strict must fail on a violating solve")
	}
	if !strings.Contains(err.Error(), "health check failed") {
		t.Fatalf("unexpected strict error: %v", err)
	}

	// A healthy solve passes strict.
	o = base
	o.strict = true
	buf.Reset()
	if err := run(&buf, o); err != nil {
		t.Fatalf("healthy solve failed strict mode: %v", err)
	}
}

// TestAuditOutVagueModeRejected: inequality (-eps) solves carry no
// equality audit, so combining them with -audit-out is an error.
func TestAuditOutVagueModeRejected(t *testing.T) {
	path := writePaperCSV(t)
	dir := t.TempDir()
	pubPath := filepath.Join(dir, "published.json")
	kPath := filepath.Join(dir, "knowledge.json")
	var buf bytes.Buffer
	o := options{
		input: path, saName: "Disease", idNames: "Name",
		diversity: 3, kNeg: 2, minSupport: 1,
		publishOut: pubPath, exportKnowledge: kPath, top: 3,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	o2 := options{published: pubPath, knowledgeFile: kPath, eps: 0.2, top: 3,
		auditOut: filepath.Join(dir, "audit.json")}
	err := run(&buf, o2)
	if err == nil || !strings.Contains(err.Error(), "not audited") {
		t.Fatalf("vague mode with -audit-out should be rejected, got %v", err)
	}
}

// TestPublishedVagueMode applies the -eps flag: knowledge enters as
// ε-boxes rather than equalities.
func TestPublishedVagueMode(t *testing.T) {
	path := writePaperCSV(t)
	dir := t.TempDir()
	pubPath := filepath.Join(dir, "published.json")
	kPath := filepath.Join(dir, "knowledge.json")
	var buf bytes.Buffer
	o := options{
		input: path, saName: "Disease", idNames: "Name",
		diversity: 3, kNeg: 2, minSupport: 1,
		publishOut: pubPath, exportKnowledge: kPath, top: 3,
	}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run(&buf, options{published: pubPath, knowledgeFile: kPath, eps: 0.2, top: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "knowledge applied:     2 constraints") {
		t.Fatalf("vague reanalysis report:\n%s", buf.String())
	}
}

// Command perfbench is the repository's benchmark. It runs one workload
// of the Privacy-MaxEnt system end to end, checks the outputs, and
// prints every metric by name and unit; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through the wrapper, which builds this
// package and the pmaxentd daemon from the checkout first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// Workloads: sweep (the paper's Figure 5), serve (a pmaxentd daemon
// under an open- then closed-loop request mix) and delta (a chain of
// incremental re-quantifications). --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from spans the
// benchmark records around its calls into the program, and writes the
// spans as JSON lines. See README.md for the metric→layer→workload map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json
// declares the same names (metrics_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Each workload defines them over its own unit
// of work (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"adult.generate_ms", "ms"},
	{"bucket.anatomize_ms", "ms"},
	{"assoc.mine_ms", "ms"},
	{"assoc.rules", "count"},
	{"core.prepare_ms", "ms"},
	{"core.quantify_ms", "ms"},
	{"constraint.formulate_ms", "ms"},
	{"constraint.knowledge_rows", "count"},
	{"constraint.diff_ms", "ms"},
	{"maxent.solve_ms", "ms"},
	{"maxent.solve_converged_ms", "ms"},
	{"maxent.solve_capped_ms", "ms"},
	{"maxent.capped_time_share", "ratio"},
	{"maxent.iterations", "count"},
	{"maxent.evaluations", "count"},
	{"maxent.ns_per_eval", "ns"},
	{"maxent.capped", "count"},
	{"maxent.components", "count"},
	{"maxent.reduced_dual_dim", "count"},
	{"maxent.reused_components", "count"},
	{"maxent.dirty_components", "count"},
	{"maxent.reuse_ratio", "ratio"},
	{"maxent.cold_fallbacks", "count"},
	{"maxent.parallel_speedup", "ratio"},
	{"metrics.score_ms", "ms"},
	{"audit.build_ms", "ms"},
	{"server.envelope_decode_ms", "ms"},
	{"server.read_json_ms", "ms"},
	{"server.digest_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.request_kb", "KB"},
	{"server.response_kb", "KB"},
	{"server.queue_wait_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"history.dropped", "count"},
	{"loadgen.late_p95_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"failed_share", "ratio"},
	{"unconverged_points", "count"},
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout
	build    string // build and scratch directory inside the checkout
	runDir   string // this run's scratch directory under build
}

// outcome is what a workload hands back: operation counts, the failed
// correctness checks, and metric values keyed by name.
type outcome struct {
	attempted, failed int
	checkFailures     []string
	flags             []string // validity warnings that do not fail the run
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.checkFailures = append(o.checkFailures, fmt.Sprintf(format, args...))
}

// envRecord identifies the machine and code a result came from.
type envRecord struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
		update  bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sweep, serve or delta")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.build, "build", ".bench_build", "build and scratch directory")
	flag.BoolVar(&update, "update-reference", false, "sweep only: rewrite the kept Figure 5 reference from this run")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if err := run(cfg, update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, update bool) error {
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		return err
	}
	if cfg.build, err = filepath.Abs(cfg.build); err != nil {
		return err
	}
	cfg.runDir = filepath.Join(cfg.build, "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.runDir)

	env := environment(cfg)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	ctx := context.Background()
	var out *outcome
	switch cfg.workload {
	case "sweep":
		out, err = runSweep(ctx, cfg, tr, update)
	case "serve":
		out, err = runServe(ctx, cfg, tr)
	case "delta":
		out, err = runDelta(ctx, cfg, tr)
	default:
		return fmt.Errorf("unknown --workload %q (want sweep, serve or delta)", cfg.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if tr != nil {
		dir := filepath.Join(cfg.build, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeJSONL(path, env); err != nil {
			return err
		}
		fmt.Printf("trace %s\n", path)
	}
	return report(out, cfg.trace)
}

// report prints one line per metric, then the result object, and fails
// the run when a correctness check failed.
func report(out *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out.metrics["failed_share"] = ratio(float64(out.failed), float64(out.attempted))
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-28s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	if !traced {
		// Zero on a healthy run (unconverged_points on every workload but
		// sweep), so not bounded end-to-end metrics; printed for the
		// reader, carried by "failed"/"attempted", and reported again by
		// the traced run.
		for _, d := range []metricDef{{"failed_share", "ratio"}, {"unconverged_points", "count"}} {
			fmt.Printf("metric %-28s %16s %s\n", d.name, strconv.FormatFloat(out.metrics[d.name], 'g', 8, 64), d.unit)
		}
	}
	for _, f := range out.flags {
		fmt.Printf("flag %s\n", f)
	}
	for i, f := range out.checkFailures {
		if i == 20 {
			fmt.Printf("check failed: ... and %d more\n", len(out.checkFailures)-i)
			break
		}
		fmt.Printf("check failed: %s\n", f)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(out.checkFailures) == 0, out.attempted, out.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(out.checkFailures))
	}
	return nil
}

// environment builds the run's environment record. The checkout need not
// be a git repository, so the commit falls back to "unknown" and the
// source digest identifies the code instead.
func environment(cfg config) envRecord {
	return envRecord{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitHead(cfg.root),
		SourceSHA256: sourceDigest(cfg.root, cfg.build),
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      int(cfg.seconds / time.Second),
		Trace:        cfg.trace,
	}
}

// gitHead reads the checked-out commit from .git without running git.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in path order), skipping dot-directories and the build
// directory.
func sourceDigest(root, build string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == build) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in " + path)
}

// timeSetup runs build reps times and returns the median wall time in
// seconds; the caller keeps what the last rep built. Repeating set-up,
// each rep from a collected heap, steadies setup_s, a bounded metric.
func timeSetup(reps int, build func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

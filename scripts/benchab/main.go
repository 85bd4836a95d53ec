// Command benchab runs an interleaved A/B benchmark comparison between two
// checkouts of this repository (a baseline "seed" tree and the current
// "head" tree) and writes the results as JSON.
//
// Interleaving matters: rather than timing all seed reps then all head
// reps, each repetition runs seed immediately followed by head, so slow
// drift in the machine (thermal state, background load, cache warmth)
// biases both trees equally. Medians over the per-rep samples are then
// robust to the occasional outlier rep.
//
// Besides wall-clock, benchab cross-checks solution quality: it runs the
// scripts/accsnap snapshot program in both trees (copying the head version
// into the seed tree when the seed predates it) and compares the reported
// EstimationAccuracy values. A speedup that changes the answer is a bug,
// not an optimization.
//
// Exit status is non-zero when the gate benchmark regresses by more than
// -regress (fractional), or when the gate solve's accuracy check fails.
// That check depends on whether each tree's gate solve converged: a
// capped endpoint depends on the solve's start, so two accuracies are
// compared (within -acctol) only when both trees converged or both
// capped. A gate capped in the seed and converged in the head passes
// when the head's worst constraint residual is at most 1e-8, since it
// is then a feasible optimum; one converged in the seed and capped in
// the head fails.
//
// The two sides need not be different checkouts: with -seed and -head
// pointing at the same directory, repeatable -seed-env/-head-env KEY=VALUE
// flags differentiate them instead. That is how the kernel-parallelism A/B
// runs — one tree, seed side pinned to serial kernels (the solve's worker
// count defaults to GOMAXPROCS):
//
//	benchab -seed . -head . -seed-env GOMAXPROCS=1 \
//	        -gate BenchmarkSolveWithKnowledge -out BENCH_3.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// convergedViolationTol is the worst constraint residual a head gate
// solve may have when it converged where the seed's stopped at the cap.
const convergedViolationTol = 1e-8

type snapshot struct {
	EstimationAccuracy float64   `json:"estimation_accuracy"`
	MaxDisclosure      float64   `json:"max_disclosure"`
	Converged          bool      `json:"converged"`
	MaxViolation       float64   `json:"max_violation"`
	Iterations         int       `json:"iterations"`
	Figure5Accuracies  []float64 `json:"figure5_accuracies"`
	Figure5Converged   []bool    `json:"figure5_converged"`
}

type benchResult struct {
	SeedNs        []float64 `json:"seed_ns_per_op"`
	HeadNs        []float64 `json:"head_ns_per_op"`
	SeedMedianNs  float64   `json:"seed_median_ns"`
	HeadMedianNs  float64   `json:"head_median_ns"`
	Improvement   float64   `json:"improvement"` // (seed-head)/seed, positive = head faster
	IsGate        bool      `json:"is_gate,omitempty"`
	GateRegressed bool      `json:"gate_regressed,omitempty"`
}

type report struct {
	SeedDir          string                  `json:"seed_dir"`
	HeadDir          string                  `json:"head_dir"`
	SeedEnv          []string                `json:"seed_env,omitempty"`
	HeadEnv          []string                `json:"head_env,omitempty"`
	GoVersion        string                  `json:"go_version"`
	NumCPU           int                     `json:"num_cpu"`
	Reps             int                     `json:"reps"`
	BenchTime        string                  `json:"benchtime"`
	BenchRegexp      string                  `json:"bench_regexp"`
	Benchmarks       map[string]*benchResult `json:"benchmarks"`
	SeedSnapshot     *snapshot               `json:"seed_snapshot,omitempty"`
	HeadSnapshot     *snapshot               `json:"head_snapshot,omitempty"`
	GateAccuracyDiff float64                 `json:"gate_accuracy_diff"`
	Figure5MaxDiff   float64                 `json:"figure5_max_accuracy_diff"`
	ConvergedParity  bool                    `json:"converged_parity"`
	Pass             bool                    `json:"pass"`
	Notes            []string                `json:"notes,omitempty"`
}

// envList is a repeatable KEY=VALUE flag.
type envList []string

func (e *envList) String() string { return strings.Join(*e, ",") }

func (e *envList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want KEY=VALUE, got %q", v)
	}
	*e = append(*e, v)
	return nil
}

func main() {
	var seedEnv, headEnv envList
	flag.Var(&seedEnv, "seed-env", "extra KEY=VALUE for the seed side's processes (repeatable)")
	flag.Var(&headEnv, "head-env", "extra KEY=VALUE for the head side's processes (repeatable)")
	var (
		seedDir   = flag.String("seed", "", "baseline checkout directory (required; may equal -head when -seed-env/-head-env differentiate the sides)")
		headDir   = flag.String("head", ".", "head checkout directory")
		reps      = flag.Int("reps", 5, "interleaved repetitions per tree")
		benchTime = flag.String("benchtime", "1x", "go test -benchtime value")
		benchRe   = flag.String("bench", "BenchmarkSolveWithKnowledge|BenchmarkFigure5", "go test -bench regexp")
		gate      = flag.String("gate", "BenchmarkSolveWithKnowledge", "benchmark that must not regress")
		regress   = flag.Float64("regress", 0.10, "max tolerated fractional regression on the gate benchmark")
		accTol    = flag.Float64("acctol", 1e-9, "max tolerated gate accuracy difference between trees")
		out       = flag.String("out", "BENCH_2.json", "output JSON path")
		skipSnap  = flag.Bool("skip-accuracy", false, "skip the accuracy cross-check")
	)
	flag.Parse()
	if *seedDir == "" {
		fmt.Fprintln(os.Stderr, "benchab: -seed is required")
		os.Exit(2)
	}

	rep := &report{
		SeedDir:     mustAbs(*seedDir),
		HeadDir:     mustAbs(*headDir),
		SeedEnv:     seedEnv,
		HeadEnv:     headEnv,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Reps:        *reps,
		BenchTime:   *benchTime,
		BenchRegexp: *benchRe,
		Benchmarks:  map[string]*benchResult{},
	}

	for i := 0; i < *reps; i++ {
		for _, tree := range []struct {
			dir  string
			env  []string
			dest func(*benchResult) *[]float64
		}{
			{rep.SeedDir, seedEnv, func(b *benchResult) *[]float64 { return &b.SeedNs }},
			{rep.HeadDir, headEnv, func(b *benchResult) *[]float64 { return &b.HeadNs }},
		} {
			fmt.Fprintf(os.Stderr, "benchab: rep %d/%d in %s %v\n", i+1, *reps, tree.dir, tree.env)
			samples, err := runBench(tree.dir, *benchRe, *benchTime, tree.env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
				os.Exit(1)
			}
			for name, ns := range samples {
				b := rep.Benchmarks[name]
				if b == nil {
					b = &benchResult{}
					rep.Benchmarks[name] = b
				}
				*tree.dest(b) = append(*tree.dest(b), ns)
			}
		}
	}

	pass := true
	for name, b := range rep.Benchmarks {
		b.SeedMedianNs = median(b.SeedNs)
		b.HeadMedianNs = median(b.HeadNs)
		if b.SeedMedianNs > 0 {
			b.Improvement = (b.SeedMedianNs - b.HeadMedianNs) / b.SeedMedianNs
		}
		if name == *gate {
			b.IsGate = true
			if b.Improvement < -*regress {
				b.GateRegressed = true
				pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"gate %s regressed %.1f%% (seed %.0f ns, head %.0f ns)",
					name, -100*b.Improvement, b.SeedMedianNs, b.HeadMedianNs))
			}
		}
	}
	if _, ok := rep.Benchmarks[*gate]; !ok {
		pass = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("gate benchmark %s did not run", *gate))
	}

	if !*skipSnap {
		headSnap, seedSnap, err := accuracySnapshots(rep.HeadDir, rep.SeedDir, headEnv, seedEnv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: accuracy check: %v\n", err)
			os.Exit(1)
		}
		rep.HeadSnapshot, rep.SeedSnapshot = headSnap, seedSnap
		rep.GateAccuracyDiff = math.Abs(headSnap.EstimationAccuracy - seedSnap.EstimationAccuracy)
		rep.ConvergedParity = headSnap.Converged == seedSnap.Converged
		for i := 0; i < len(headSnap.Figure5Accuracies) && i < len(seedSnap.Figure5Accuracies); i++ {
			d := math.Abs(headSnap.Figure5Accuracies[i] - seedSnap.Figure5Accuracies[i])
			if d > rep.Figure5MaxDiff {
				rep.Figure5MaxDiff = d
			}
		}
		switch {
		case rep.ConvergedParity:
			if rep.GateAccuracyDiff > *accTol {
				pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("gate accuracy differs by %g (tol %g)", rep.GateAccuracyDiff, *accTol))
			}
		case headSnap.Converged:
			// The seed's capped endpoint is no optimum to compare with;
			// the head's is one if it is feasible.
			if !(headSnap.MaxViolation <= convergedViolationTol) {
				pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("gate converged in head but not in seed, with head max violation %g (tol %g)", headSnap.MaxViolation, convergedViolationTol))
			} else {
				rep.Notes = append(rep.Notes, fmt.Sprintf("gate converged in head but not in seed: accuracy moved by %g, head max violation %g", rep.GateAccuracyDiff, headSnap.MaxViolation))
			}
		default:
			pass = false
			rep.Notes = append(rep.Notes, "gate converged in seed but not in head")
		}
		// Convergence may improve in head but never regress. Baselines that
		// predate per-point flags report all-false and trivially pass.
		for i := 0; i < len(seedSnap.Figure5Converged) && i < len(headSnap.Figure5Converged); i++ {
			if seedSnap.Figure5Converged[i] && !headSnap.Figure5Converged[i] {
				pass = false
				rep.Notes = append(rep.Notes, fmt.Sprintf("figure5 point %d converged in seed but not in head", i))
			}
		}
	}
	rep.Pass = pass

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(buf)
	if !pass {
		os.Exit(1)
	}
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)

// runBench runs the benchmark set once in dir and returns ns/op per
// benchmark name (CPU suffix stripped).
func runBench(dir, re, benchTime string, env []string) (map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+re, "-benchtime="+benchTime, "-count=1", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench in %s: %v\n%s%s", dir, err, errBuf.String(), outBuf.String())
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(&outBuf)
	for sc.Scan() {
		mm := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if mm == nil {
			continue
		}
		ns, err := strconv.ParseFloat(mm[2], 64)
		if err != nil {
			continue
		}
		samples[mm[1]] = ns
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from %s output:\n%s", dir, outBuf.String())
	}
	return samples, nil
}

// accuracySnapshots runs scripts/accsnap in both trees. The seed tree may
// predate accsnap, so the head version is copied in as scripts/accsnap_ab
// (a distinct package path, removed afterwards when we created it). The
// snapshot program only uses APIs present in the seed, by construction.
// When both sides are the same directory (env-differentiated A/B) the
// copy is skipped and both snapshots come from the head accsnap.
func accuracySnapshots(headDir, seedDir string, headEnv, seedEnv []string) (head, seed *snapshot, err error) {
	head, err = runSnap(headDir, "./scripts/accsnap", headEnv)
	if err != nil {
		return nil, nil, err
	}
	seedPkg := "./scripts/accsnap_ab"
	if seedDir == headDir {
		seedPkg = "./scripts/accsnap"
	} else {
		abDir := filepath.Join(seedDir, "scripts", "accsnap_ab")
		if _, statErr := os.Stat(abDir); os.IsNotExist(statErr) {
			src, rerr := os.ReadFile(filepath.Join(headDir, "scripts", "accsnap", "main.go"))
			if rerr != nil {
				return nil, nil, rerr
			}
			if err := os.MkdirAll(abDir, 0o755); err != nil {
				return nil, nil, err
			}
			defer os.RemoveAll(abDir)
			if err := os.WriteFile(filepath.Join(abDir, "main.go"), src, 0o644); err != nil {
				return nil, nil, err
			}
		}
	}
	seed, err = runSnap(seedDir, seedPkg, seedEnv)
	if err != nil {
		return nil, nil, err
	}
	return head, seed, nil
}

func runSnap(dir, pkg string, env []string) (*snapshot, error) {
	cmd := exec.Command("go", "run", pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go run %s in %s: %v\n%s", pkg, dir, err, errBuf.String())
	}
	var s snapshot
	if err := json.Unmarshal(outBuf.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("parse %s output in %s: %v", pkg, dir, err)
	}
	return &s, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return 0.5 * (s[n/2-1] + s[n/2])
	}
}

func mustAbs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

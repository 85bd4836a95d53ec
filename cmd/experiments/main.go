// Command experiments regenerates the data series behind every table and
// figure of the paper's evaluation (Sec. 7), printing them as aligned
// text tables.
//
// Usage:
//
//	experiments -figure all                 # everything, scaled-down defaults
//	experiments -figure 5 -records 14210    # Figure 5 at the paper's full size
//	experiments -figure 7b -buckets 200,400,800,1600 -constraints 0,100,1000,10000
//
// Figures: 5, 6, 7a, 7b, 7c, stages (per-stage running-time breakdown
// from Report.Timings), solvers (Malouf-style ablation), decomposition
// (Sec. 5.5 ablation), baseline, frontier (per-scheme disclosure vs
// utility sweep across Anatomy, Mondrian and randomized response; -out
// additionally writes the points as CSV).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"privacymaxent/internal/experiments"
)

func main() {
	var (
		figure      = flag.String("figure", "all", "which figure to regenerate: 5, 6, 7a, 7b, 7c, stages, solvers, decomposition, baseline, frontier, all")
		records     = flag.Int("records", 1500, "synthetic Adult records (paper: 14210)")
		seed        = flag.Int64("seed", 1, "generator seed")
		diversity   = flag.Int("l", 5, "L-diversity / bucket size")
		minSupport  = flag.Int("minsupport", 3, "rule support threshold")
		maxRuleSize = flag.Int("maxrulesize", 3, "largest QI-subset size mined for the rule pool")
		maxT        = flag.Int("maxt", 4, "largest T for Figure 6 (paper: 8)")
		buckets     = flag.String("buckets", "50,100,200,400", "bucket counts for Figures 7b/7c")
		constraints = flag.String("constraints", "0,100,1000", "knowledge sizes for Figures 7b/7c")
		k           = flag.Int("k", 50, "knowledge size for the ablations")
		kGrid       = flag.String("ks", "", "comma-separated K grid for Figures 5 and 6 (default: geometric sweep)")
		maxIter     = flag.Int("maxiter", 0, "LBFGS iteration budget for accuracy solves (default 6000)")
		workers     = flag.Int("workers", 0, "concurrent grid evaluations in the sweep figures (0 = GOMAXPROCS, <0 = sequential)")
		auditDir    = flag.String("audit-dir", "", "write per-point solve audits (figures 7a/7b/7c and the solver ablation) into this directory")
		out         = flag.String("out", "", "write the frontier points as CSV to this file (frontier figure only)")
	)
	flag.Parse()

	if *auditDir != "" {
		if err := os.MkdirAll(*auditDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	cfg := experiments.Config{
		Records:       *records,
		Seed:          *seed,
		Diversity:     *diversity,
		MinSupport:    *minSupport,
		MaxRuleSize:   *maxRuleSize,
		MaxIterations: *maxIter,
		Workers:       *workers,
		AuditDir:      *auditDir,
	}
	if err := run(*figure, cfg, *maxT, parseInts(*buckets), parseInts(*constraints), *k, parseInts(*kGrid), *out); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			if v, err := strconv.Atoi(p); err == nil {
				out = append(out, v)
			}
		}
	}
	return out
}

func run(figure string, cfg experiments.Config, maxT int, buckets, constraints []int, k int, kGrid []int, out string) error {
	needsInstance := map[string]bool{"5": true, "6": true, "7a": true, "stages": true, "solvers": true, "decomposition": true, "baseline": true, "frontier": true, "all": true}
	var in *experiments.Instance
	var err error
	if needsInstance[figure] {
		fmt.Printf("generating workload: %d records, seed %d, L=%d ...\n", cfg.Records, cfg.Seed, cfg.Diversity)
		in, err = experiments.NewInstance(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("workload: %d buckets, %d distinct QI tuples, %d mined rules\n\n",
			in.Data.NumBuckets(), in.Data.Universe().Len(), len(in.Rules))
	}

	want := func(name string) bool { return figure == name || figure == "all" }

	if want("baseline") {
		acc, distinct, entropy, err := experiments.BaselineAccuracy(in)
		if err != nil {
			return err
		}
		fmt.Printf("== Baseline (no background knowledge) ==\n")
		fmt.Printf("estimation accuracy  %.6g\n", acc)
		fmt.Printf("distinct L-diversity %d\n", distinct)
		fmt.Printf("entropy L-diversity  %.3f\n\n", entropy)
	}
	if want("5") {
		series, err := experiments.Figure5(in, kGrid...)
		if err != nil {
			return err
		}
		if err := experiments.PrintSeries(os.Stdout, "Figure 5: positive and negative association rules", "K", series); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("6") {
		series, err := experiments.Figure6(in, maxT, kGrid...)
		if err != nil {
			return err
		}
		if err := experiments.PrintSeries(os.Stdout, "Figure 6: number of QI attributes in knowledge", "K", series); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("7a") {
		series, err := experiments.Figure7a(in)
		if err != nil {
			return err
		}
		if err := experiments.PrintSeries(os.Stdout, "Figure 7(a): performance vs knowledge", "#constraints", series); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("7b") || want("7c") {
		timeS, iterS, err := experiments.Figure7bc(cfg, buckets, constraints)
		if err != nil {
			return err
		}
		if want("7b") {
			if err := experiments.PrintSeries(os.Stdout, "Figure 7(b): running time vs data size", "#buckets", timeS); err != nil {
				return err
			}
			fmt.Println()
		}
		if want("7c") {
			if err := experiments.PrintSeries(os.Stdout, "Figure 7(c): iterations vs data size", "#buckets", iterS); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	if want("frontier") {
		points, err := experiments.Frontier(in, k, k)
		if err != nil {
			return err
		}
		fmt.Printf("== Privacy–utility frontier (Top-(%d,%d) knowledge) ==\n", k, k)
		if err := experiments.PrintFrontier(os.Stdout, points); err != nil {
			return err
		}
		fmt.Println()
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			if err := experiments.WriteFrontierCSV(f, points); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("frontier CSV written to %s\n\n", out)
		}
	}
	if want("stages") {
		series, err := experiments.StageBreakdown(in, kGrid)
		if err != nil {
			return err
		}
		if err := experiments.PrintSeries(os.Stdout, "Per-stage running time (seconds) vs knowledge", "#rules", series); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("solvers") {
		results, err := experiments.CompareAlgorithms(in, k, nil)
		if err != nil {
			return err
		}
		if err := experiments.PrintAlgorithmComparison(os.Stdout, results); err != nil {
			return err
		}
		fmt.Println()
	}
	if want("decomposition") {
		results, err := experiments.CompareDecomposition(in, k)
		if err != nil {
			return err
		}
		if err := experiments.PrintDecomposition(os.Stdout, results); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

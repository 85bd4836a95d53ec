package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"privacymaxent/internal/core"
)

// PrintSeries renders series as an aligned text table with one row per x
// value and one column per series — the textual equivalent of the paper's
// plots.
func PrintSeries(w io.Writer, title, xLabel string, series []Series) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xLabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)

	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		fmt.Fprintf(tw, "%g", x)
		for _, s := range series {
			val, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(tw, "\t%.6g", val)
			} else {
				fmt.Fprintf(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// PrintAlgorithmComparison renders the solver ablation.
func PrintAlgorithmComparison(w io.Writer, results []AlgorithmResult) error {
	if _, err := fmt.Fprintln(w, "== Solver comparison (Malouf-style, Sec. 3.3) =="); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\titerations\tseconds\tmax violation\tconverged")
	for _, r := range results {
		fmt.Fprintf(tw, "%v\t%d\t%.4f\t%.2e\t%v\n", r.Algorithm, r.Iterations, r.Duration.Seconds(), r.MaxViolation, r.Converged)
	}
	return tw.Flush()
}

// PrintDecomposition renders the Sec. 5.5 ablation.
func PrintDecomposition(w io.Writer, results []DecompositionResult) error {
	if _, err := fmt.Fprintln(w, "== Irrelevant-bucket optimization (Sec. 5.5) =="); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "decomposed\tactive vars\tirrelevant buckets\tseconds\testimation accuracy\tprepare s\tformulate s\tsolve s\tscore s")
	for _, r := range results {
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.4f\t%.6g\t%.4f\t%.4f\t%.4f\t%.4f\n",
			r.Decomposed, r.ActiveVariables, r.IrrelevantBuckets, r.Duration.Seconds(), r.Accuracy,
			r.Timings.Get(core.StagePrepare).Seconds(), r.Timings.Get(core.StageFormulate).Seconds(),
			r.Timings.Get(core.StageSolve).Seconds(),
			r.Timings.Get(core.StageScore).Seconds())
	}
	return tw.Flush()
}

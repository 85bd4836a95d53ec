package maxent

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/solver"
)

// randomFeasibleConstraints builds m random sparse equality rows over n
// variables whose right-hand sides come from evaluating the rows at a
// random strictly-positive interior point, so the system is feasible by
// construction and the dual has a finite minimizer.
func randomFeasibleConstraints(rng *rand.Rand, n, m int) []constraint.Constraint {
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 0.05 + 0.4*rng.Float64()
	}
	cons := make([]constraint.Constraint, 0, m)
	for i := 0; i < m; i++ {
		nnz := 2 + rng.Intn(6)
		terms := make([]int, 0, nnz)
		seen := map[int]bool{}
		for len(terms) < nnz {
			t := rng.Intn(n)
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		coeffs := make([]float64, nnz)
		rhs := 0.0
		for k, t := range terms {
			coeffs[k] = 0.2 + rng.Float64()
			rhs += coeffs[k] * x0[t]
		}
		cons = append(cons, constraint.Constraint{
			Kind: constraint.Knowledge, Label: fmt.Sprintf("r%d", i),
			Terms: terms, Coeffs: coeffs, RHS: rhs,
		})
	}
	return cons
}

// kernelWorkerGrid is the property-test grid of Options.Workers values,
// which size the kernels too: serial, a width below GOMAXPROCS-style
// counts, and a width far above the container's CPU count
// (oversubscription must not change results either).
var kernelWorkerGrid = []int{-1, 2, 8}

// TestKernelWorkersBitIdentical is the central determinism property of
// the blocked kernels: for every dual algorithm, the solution vector and
// the iteration/evaluation counts are bit-for-bit identical at every
// kernel width (Options.Workers), across random feasible systems whose
// active variable counts span the block-partition boundary.
func TestKernelWorkersBitIdentical(t *testing.T) {
	algs := []Algorithm{LBFGS, Newton, SteepestDescent}
	sizes := [][2]int{{40, 6}, {700, 10}, {1300, 12}}
	for trial, sz := range sizes {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n, m := sz[0], sz[1]
		cons := randomFeasibleConstraints(rng, n, m)
		init := make([]float64, n)
		for i := range init {
			init[i] = 1.0 / float64(n)
		}
		for _, alg := range algs {
			opts := Options{Algorithm: alg, Workers: -1}
			opts.Solver.MaxIterations = 400
			opts.Solver.GradTol = 1e-10
			want, wantStats, err := SolveConstraintsContext(context.Background(), n, cons, init, opts)
			if err != nil {
				t.Fatalf("n=%d %v serial: %v", n, alg, err)
			}
			if wantStats.KernelWorkers != 1 || wantStats.Workers != 1 {
				t.Fatalf("n=%d %v serial recorded workers=%d kernel=%d, want 1/1",
					n, alg, wantStats.Workers, wantStats.KernelWorkers)
			}
			for _, kw := range kernelWorkerGrid[1:] {
				opts.Workers = kw
				got, gotStats, err := SolveConstraintsContext(context.Background(), n, cons, init, opts)
				if err != nil {
					t.Fatalf("n=%d %v kw=%d: %v", n, alg, kw, err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d %v kw=%d: x[%d] = %x, serial %x", n, alg, kw, j, got[j], want[j])
					}
				}
				if gotStats.Iterations != wantStats.Iterations || gotStats.Evaluations != wantStats.Evaluations {
					t.Fatalf("n=%d %v kw=%d: %d iters/%d evals, serial %d/%d — trajectory diverged",
						n, alg, kw, gotStats.Iterations, gotStats.Evaluations, wantStats.Iterations, wantStats.Evaluations)
				}
				if gotStats.KernelWorkers != kw {
					t.Fatalf("n=%d %v kw=%d: Stats.KernelWorkers = %d", n, alg, kw, gotStats.KernelWorkers)
				}
			}
		}
	}
}

// TestKernelWorkersSolveParity runs the full SolveContext path —
// presolve, optional decomposition, warm collection of duals and
// trajectories — on a real Adult-style workload and asserts posteriors,
// trajectories and duals are bit-identical at every worker count (kernel
// width and, when decomposing, component fan-out), with and without
// decomposition. This is the serial-vs-parallel parity that auditdiff
// certifies on audit snapshots: identical X means identical residuals,
// identical trajectories mean identical iteration records.
func TestKernelWorkersSolveParity(t *testing.T) {
	d, selected := solveWorkload(t)
	for _, decompose := range []bool{false, true} {
		var want *Solution
		for _, kw := range kernelWorkerGrid {
			opts := Options{Decompose: decompose, Workers: kw, CaptureTrace: true}
			opts.Solver.MaxIterations = 3000
			opts.Solver.GradTol = 1e-7
			sol, err := SolveContext(context.Background(), workloadSystem(t, d, selected), opts)
			if err != nil {
				t.Fatalf("decompose=%v kw=%d: %v", decompose, kw, err)
			}
			if !sol.Stats.Converged {
				t.Fatalf("decompose=%v kw=%d did not converge", decompose, kw)
			}
			if want == nil {
				want = sol
				continue
			}
			for j := range want.X {
				if sol.X[j] != want.X[j] {
					t.Fatalf("decompose=%v kw=%d: X[%d] = %x, serial %x", decompose, kw, j, sol.X[j], want.X[j])
				}
			}
			if !reflect.DeepEqual(sol.Trajectory, want.Trajectory) {
				t.Fatalf("decompose=%v kw=%d: trajectory diverged (%d vs %d points)",
					decompose, kw, len(sol.Trajectory), len(want.Trajectory))
			}
			if !reflect.DeepEqual(sol.Duals, want.Duals) {
				t.Fatalf("decompose=%v kw=%d: duals diverged", decompose, kw)
			}
		}
	}
}

// TestNonDecomposedWorkersReported: the non-decomposed path reports the
// kernel width as the solve's parallelism instead of hard-coding 1 (the
// old bug), and a serial request still reports 1.
func TestNonDecomposedWorkersReported(t *testing.T) {
	d, selected := solveWorkload(t)
	opts := Options{Workers: 3}
	opts.Solver.MaxIterations = 3000
	opts.Solver.GradTol = 1e-6
	sol, err := SolveContext(context.Background(), workloadSystem(t, d, selected), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.KernelWorkers != 3 || sol.Stats.Workers != 3 {
		t.Fatalf("non-decomposed solve recorded workers=%d kernel=%d, want 3/3",
			sol.Stats.Workers, sol.Stats.KernelWorkers)
	}
	opts.Workers = -1
	sol, err = SolveContext(context.Background(), workloadSystem(t, d, selected), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.KernelWorkers != 1 || sol.Stats.Workers != 1 {
		t.Fatalf("serial-kernel solve recorded workers=%d kernel=%d, want 1/1",
			sol.Stats.Workers, sol.Stats.KernelWorkers)
	}
}

// TestKernelWorkerCountResolution pins the kernel width's semantics: it
// is the resolved Options.Workers count — zero means GOMAXPROCS,
// negatives mean serial — and Stats.KernelWorkers records it.
func TestKernelWorkerCountResolution(t *testing.T) {
	const n = 40
	cons := randomFeasibleConstraints(rand.New(rand.NewSource(5)), n, 6)
	init := make([]float64, n)
	for i := range init {
		init[i] = 1.0 / n
	}
	for _, tc := range []struct{ workers, want int }{
		{0, runtime.GOMAXPROCS(0)}, {-2, 1}, {1, 1}, {5, 5},
	} {
		_, stats, err := SolveConstraintsContext(context.Background(), n, cons, init, Options{Workers: tc.workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", tc.workers, err)
		}
		if stats.KernelWorkers != tc.want || stats.Workers != tc.want {
			t.Fatalf("Workers=%d recorded workers=%d kernel=%d, want %d/%d",
				tc.workers, stats.Workers, stats.KernelWorkers, tc.want, tc.want)
		}
	}
}

// TestCancelMidKernelDrains cancels the context from inside the solve —
// after the first optimizer iteration, while the parallel kernels are
// hot — and checks the solver surfaces ErrInterrupted and the shared
// pool drains cleanly (run with -race, nothing may still be touching the
// kernel buffers when SolveContext returns; the deferred pool Close would
// hang if a region leaked).
func TestCancelMidKernelDrains(t *testing.T) {
	d, selected := solveWorkload(t)
	for _, decompose := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Decompose: decompose, Workers: 4}
		opts.Solver.MaxIterations = 3000
		opts.Solver.GradTol = 1e-12 // keep it running until cancelled
		opts.Solver.Trace = func(ev solver.TraceEvent) {
			if ev.Iteration >= 1 {
				cancel()
			}
		}
		_, err := SolveContext(ctx, workloadSystem(t, d, selected), opts)
		cancel()
		if !errors.Is(err, solver.ErrInterrupted) {
			t.Fatalf("decompose=%v: got %v, want ErrInterrupted", decompose, err)
		}
	}
}

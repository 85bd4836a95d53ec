package maxent

import (
	"math"
	"sort"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/linalg"
	"privacymaxent/internal/solver"
)

// This file implements the structural presolve's second stage
// (Options.Reduce): analytic elimination of bucket-local invariant rows
// from the dual, Schur-complement-style.
//
// The invariant matrix is block-diagonal by bucket — only knowledge and
// individual rows couple buckets — so split the multipliers λ = (μ, ν)
// with μ on the bucket-local QI/SA invariant rows and ν on the coupling
// rows K. For the unit-coefficient invariant rows the inner minimization
// of g(μ, ν) over μ decomposes per bucket into biproportional fitting:
// with w_j(ν) = exp((Kᵀν)_j − 1), the primal factors as
//
//	x_j = α_{q(j)} · β_{s(j)} · w_j,   α_q = e^{μ_q}, β_s = e^{μ_s},
//
// and the inner stationarity conditions are exactly the row-sum
// equations Sinkhorn/IPF iterations solve: α_q ← rhs_q / Σ_j β_{s(j)} w_j
// over the QI row's terms and symmetrically for β. Terms whose SA row
// was dropped by InvariantOptions.DropRedundant (Theorem 3's gauge
// fixing) simply carry an implicit β = 1. The scalings persist across
// evaluations, so near the optimum each outer iteration's inner solve is
// one or two sweeps.
//
// The reduced dual over the coupling rows alone is the partial minimum
//
//	g̃(ν) = min_μ g(μ, ν) = Σ_j x_j(ν) − Σ_i μ*_i(ν)·c_i − νᵀk,
//
// and by the envelope theorem its gradient needs no ∂μ*/∂ν term:
//
//	∇g̃(ν) = K x(ν) − k.
//
// The numeric dual's dimension therefore scales with the coupling rows
// (≈ K knowledge rows + individual rows), not with the publication size.
// μ is recovered as log α / log β, so every surviving constraint still
// reports a Lagrange multiplier under its original label — audit
// residual attribution, binding-rule rankings and warm-start seeds keep
// working unchanged.
//
// Determinism: group and column-block partitions are functions of the
// problem shape only; each inner group owns disjoint scaling state and
// sweeps its rows in a fixed order; block partial sums combine in
// ascending order. The reduced solve is bit-identical at every worker
// count (the same guarantee the full dual kernels give).

// schurInnerTol is the relative-change tolerance of the inner scaling
// sweeps — far inside the outer GradTol so the envelope gradient stays
// consistent with the returned value.
const schurInnerTol = 1e-13

// schurMaxSweeps bounds one inner solve; with persistent scalings the
// steady-state cost is one or two sweeps, with the cold start taking a
// few hundred.
const schurMaxSweeps = 500

// schurStallTol separates "close enough" from "stalled" when the sweep
// budget runs out. IPF's geometric rate degrades toward 1 when the outer
// duals are being pushed to the boundary (certainty knowledge,
// P ∈ {0, 1}); a group still above this tolerance after the full budget
// is on that path, and the evaluation reports +Inf so the outer solver
// fails fast into the full-dual fallback instead of grinding sweeps on a
// system the reduction cannot converge anyway. Between the two
// tolerances the sweep state is accepted: the envelope gradient is
// inexact by O(1e-9), well inside the outer optimizer's line-search
// slack.
const schurStallTol = 1e-9

// schurObjective implements solver.Objective for g̃(ν) over the coupling
// rows of a presolved system whose eligible bucket-local invariant rows
// have been eliminated analytically.
type schurObjective struct {
	k     *linalg.CSR    // coupling rows × active columns
	kcols linalg.ColView // CSC view for the fused w kernel
	krhs  []float64      // coupling right-hand sides
	nCols int
	run   linalg.Runner

	coupIdx  []int // coupling row index → index into the presolved rows
	localIdx []int // local scaling index → index into the presolved rows

	// One entry per eliminated local row ("scaling").
	localRHS  []float64
	localCols [][]int // active columns of each local row (aliases CSR storage)
	isBeta    []bool  // SA-invariant side (alpha otherwise)
	scale     []float64

	// Per active column: owning alpha/beta scaling, -1 when none (a
	// column may lack a beta under DropRedundant, or both in an
	// ineligible bucket whose rows stayed in the coupling set).
	alphaOf, betaOf []int32

	// groups are the connected components of local rows under shared
	// columns — the buckets, recovered structurally so the reduction also
	// serves the low-level SolveConstraintsContext path, which has no Space.
	groups [][]int32

	w, x      []float64 // w_j(ν) and x_j = scale·w_j
	blockSums []float64
	groupLogs []float64 // per group: Σ rhs_i·log(scale_i), NaN on failure
	stalled   []bool    // per group: sweep budget exhausted above tolerance
}

// newSchurObjective partitions the presolved rows (already assembled as
// a with right-hand sides rhs) into eliminable bucket-local invariant
// rows and coupling rows. It returns nil when nothing is eliminable — the
// caller falls back to the full dual.
func newSchurObjective(a *linalg.CSR, rhs []float64, rows []rowData) *schurObjective {
	nCols := a.Cols()
	// The α/β owner maps share one backing allocation. They are all the
	// per-column state the decline paths below ever touch, so a
	// certainty-heavy workload that boundaryCoupling rejects pays one
	// int32 allocation and the partition loop — never the per-row column
	// views, group structures or IPF scaling state.
	owners := make([]int32, 2*nCols)
	for i := range owners {
		owners[i] = -1
	}
	o := &schurObjective{
		nCols:   nCols,
		alphaOf: owners[:nCols:nCols],
		betaOf:  owners[nCols:],
	}

	// A row is eliminable when it is a unit-coefficient QI/SA invariant
	// with positive mass and its columns are not already claimed on the
	// same side — each term may carry at most one α and one β factor.
	// Anything else (knowledge, individual rows, presolve-mangled
	// invariants) stays in the coupling set, which is always correct,
	// just less reduced.
	eligible := func(i int, cols []int, vals []float64) bool {
		kind := rows[i].kind
		if kind != constraint.QIInvariant && kind != constraint.SAInvariant {
			return false
		}
		if rhs[i] <= presolveTol || len(cols) == 0 {
			return false
		}
		for _, v := range vals {
			if v != 1 {
				return false
			}
		}
		owner := o.alphaOf
		if kind == constraint.SAInvariant {
			owner = o.betaOf
		}
		for _, c := range cols {
			if owner[c] != -1 {
				return false
			}
		}
		// Reject duplicate columns within the row: the closed-form
		// scaling update is exact only for unit coefficients, and a
		// repeated column is an effective coefficient of 2.
		for k := 1; k < len(cols); k++ {
			for l := 0; l < k; l++ {
				if cols[k] == cols[l] {
					return false
				}
			}
		}
		return true
	}

	for i := range rows {
		cols, vals := a.Row(i)
		if !eligible(i, cols, vals) {
			o.coupIdx = append(o.coupIdx, i)
			continue
		}
		li := int32(len(o.localIdx))
		owner := o.alphaOf
		if rows[i].kind == constraint.SAInvariant {
			owner = o.betaOf
		}
		for _, c := range cols {
			owner[c] = li
		}
		o.localIdx = append(o.localIdx, i)
		o.localRHS = append(o.localRHS, rhs[i])
	}
	if len(o.localIdx) == 0 {
		return nil
	}
	if o.boundaryCoupling(a, rhs) {
		// A certainty row (P ∈ {0, 1} knowledge) pins part of an
		// eliminated row's mass exactly, forcing the complement terms to
		// zero — the dual optimum is at infinity and neither the reduced
		// nor the full solve converges, but the reduced attempt would pay
		// its whole stall-and-fallback cost first. Skip it outright —
		// before the per-row column views and the IPF scaling state below
		// are ever built, so a declined system costs only the owner maps.
		return nil
	}
	// The elimination goes ahead: materialize the per-row structures the
	// group partition and the scaling sweeps need (deferred until here so
	// the decline paths above never allocate them).
	o.localCols = make([][]int, len(o.localIdx))
	o.isBeta = make([]bool, len(o.localIdx))
	for li, ri := range o.localIdx {
		cols, _ := a.Row(ri)
		o.localCols[li] = cols
		o.isBeta[li] = rows[ri].kind == constraint.SAInvariant
	}
	o.buildGroups()
	o.demoteIncompleteGroups()
	if len(o.localIdx) == 0 {
		return nil
	}

	o.k = linalg.NewCSR(nCols)
	for _, i := range o.coupIdx {
		cols, vals := a.Row(i)
		if err := o.k.AppendRow(cols, vals); err != nil {
			return nil // defensive: fall back to the full dual
		}
		o.krhs = append(o.krhs, rhs[i])
	}
	o.kcols = o.k.Columns()

	o.scale = make([]float64, len(o.localIdx))
	for i := range o.scale {
		o.scale[i] = 1
	}
	o.w = make([]float64, nCols)
	o.x = make([]float64, nCols)
	o.blockSums = make([]float64, linalg.NumBlocks(nCols))
	o.groupLogs = make([]float64, len(o.groups))
	o.stalled = make([]bool, len(o.groups))
	return o
}

// boundaryCoupling reports whether any unit-coefficient coupling row
// pins exactly the full mass of the eliminated rows it intersects: when
// every column of the row is owned by α (or β) scalings and the row's
// right-hand side equals the sum of those scalings' right-hand sides,
// the terms those scalings own outside the row are forced to zero. That
// is the P = 1 certainty-knowledge signature — the dual optimum sits at
// infinity, IPF's contraction degrades to a stall, and the cheapest
// correct move is to not attempt the reduction at all.
func (o *schurObjective) boundaryCoupling(a *linalg.CSR, rhs []float64) bool {
	var seen []int32
	side := func(i int, cols []int, owner []int32) bool {
		var sum float64
		seen = seen[:0]
		for _, c := range cols {
			li := owner[c]
			if li < 0 {
				return false // unowned column: mass argument does not close
			}
			dup := false
			for _, s := range seen {
				if s == li {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, li)
				sum += o.localRHS[li]
			}
		}
		return sum-rhs[i] <= presolveTol
	}
	for _, i := range o.coupIdx {
		cols, vals := a.Row(i)
		if len(cols) == 0 {
			continue
		}
		unit := true
		for _, v := range vals {
			if v != 1 {
				unit = false
				break
			}
		}
		if !unit {
			continue
		}
		if side(i, cols, o.alphaOf) || side(i, cols, o.betaOf) {
			return true
		}
	}
	return false
}

// buildGroups unions local rows that share a column — exactly the bucket
// structure, recovered without a Space. Groups are ordered by smallest
// member and each group's rows ascend, so the sweep order is a function
// of the problem shape only.
func (o *schurObjective) buildGroups() {
	n := len(o.localIdx)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(i int32) int32 {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	colOwner := make([]int32, o.nCols)
	for c := range colOwner {
		colOwner[c] = -1
	}
	for li := int32(0); li < int32(n); li++ {
		for _, c := range o.localCols[li] {
			if colOwner[c] == -1 {
				colOwner[c] = li
			} else {
				parent[find(li)] = find(colOwner[c])
			}
		}
	}
	byRoot := make(map[int32][]int32)
	var roots []int32
	for li := int32(0); li < int32(n); li++ {
		r := find(li)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], li)
	}
	// Ascending row order within a group is append order; groups ordered
	// by their smallest member, which is the first root encountered.
	o.groups = make([][]int32, 0, len(roots))
	for _, r := range roots {
		o.groups = append(o.groups, byRoot[r])
	}
}

// groupComplete reports whether the group's active support is a full
// grid: every β-row column carries an α factor and every α row touches
// each of the group's β classes — the implicit dropped class included —
// exactly once. Over such a grid the inner problem is matrix scaling of
// a strictly positive matrix, for which Sinkhorn's theorem guarantees
// positive scalings and geometric sweep convergence. Incomplete supports
// — cells pinned to zero by P = 0 knowledge — can push the scaling
// optimum to the boundary, where the sweeps degrade to sublinear
// convergence and the capped inner solve would return a low-accuracy
// point; those groups are demoted to the coupling set, which the outer
// optimizer handles at full accuracy.
func (o *schurObjective) groupComplete(members []int32) bool {
	var sig, cur []int32
	first := true
	for _, li := range members {
		cols := o.localCols[li]
		if o.isBeta[li] {
			for _, c := range cols {
				if o.alphaOf[c] < 0 {
					return false
				}
			}
			continue
		}
		cur = cur[:0]
		for _, c := range cols {
			cur = append(cur, o.betaOf[c])
		}
		sort.Slice(cur, func(a, b int) bool { return cur[a] < cur[b] })
		for k := 1; k < len(cur); k++ {
			if cur[k] == cur[k-1] {
				return false
			}
		}
		if first {
			sig = append(sig[:0], cur...)
			first = false
			continue
		}
		if len(cur) != len(sig) {
			return false
		}
		for k := range cur {
			if cur[k] != sig[k] {
				return false
			}
		}
	}
	return true
}

// demoteIncompleteGroups moves every group that fails groupComplete back
// into the coupling set and compacts the local structures, remapping the
// surviving groups' indices. Demotion never cascades: surviving groups
// share no columns with demoted rows (shared columns would have merged
// the groups), so one validation pass suffices.
func (o *schurObjective) demoteIncompleteGroups() {
	keep := make([]bool, len(o.groups))
	anyDrop := false
	for g, members := range o.groups {
		keep[g] = o.groupComplete(members)
		if !keep[g] {
			anyDrop = true
		}
	}
	if !anyDrop {
		return
	}
	dropLocal := make([]bool, len(o.localIdx))
	for g, members := range o.groups {
		if keep[g] {
			continue
		}
		for _, li := range members {
			dropLocal[li] = true
		}
	}
	for c := range o.alphaOf {
		o.alphaOf[c] = -1
		o.betaOf[c] = -1
	}
	remap := make([]int32, len(o.localIdx))
	var localIdx []int
	var localRHS []float64
	var localCols [][]int
	var isBeta []bool
	for li := range o.localIdx {
		if dropLocal[li] {
			remap[li] = -1
			o.coupIdx = append(o.coupIdx, o.localIdx[li])
			continue
		}
		nli := int32(len(localIdx))
		remap[li] = nli
		owner := o.alphaOf
		if o.isBeta[li] {
			owner = o.betaOf
		}
		for _, c := range o.localCols[li] {
			owner[c] = nli
		}
		localIdx = append(localIdx, o.localIdx[li])
		localRHS = append(localRHS, o.localRHS[li])
		localCols = append(localCols, o.localCols[li])
		isBeta = append(isBeta, o.isBeta[li])
	}
	// Demoted rows rejoin the coupling set in presolved-row order, so the
	// coupling system's assembly stays deterministic.
	sort.Ints(o.coupIdx)
	o.localIdx, o.localRHS, o.localCols, o.isBeta = localIdx, localRHS, localCols, isBeta
	groups := o.groups[:0]
	for g, members := range o.groups {
		if !keep[g] {
			continue
		}
		ms := make([]int32, 0, len(members))
		for _, li := range members {
			ms = append(ms, remap[li])
		}
		groups = append(groups, ms)
	}
	o.groups = groups
}

// setRunner installs the block executor (shared with the component pool).
func (o *schurObjective) setRunner(run linalg.Runner) { o.run = run }

// seedScale warm-starts one local row's scaling from a previous dual
// (scale = e^{μ}).
func (o *schurObjective) seedScale(li int, mu float64) {
	if s := math.Exp(mu); s > 0 && !math.IsInf(s, 0) {
		o.scale[li] = s
	}
}

func (o *schurObjective) forBlocks(nb int, fn func(b int)) {
	if o.run == nil {
		for b := 0; b < nb; b++ {
			fn(b)
		}
		return
	}
	o.run(nb, fn)
}

// Dim is the reduced dual dimension: coupling rows only.
func (o *schurObjective) Dim() int { return o.k.Rows() }

// computeW evaluates w_j = exp((Kᵀν)_j − 1) with the fused blocked
// kernel. Columns no coupling row touches get w = e^{−1} (exponent 0).
func (o *schurObjective) computeW(nu []float64) {
	o.forBlocks(linalg.NumBlocks(o.nCols), func(b int) {
		lo, hi := linalg.BlockBounds(b, o.nCols)
		o.kcols.ExpDots(nu, o.w, lo, hi)
	})
}

// innerSolve runs the per-group scaling sweeps to the inner tolerance,
// starting from the persisted scalings. A group whose sweep encounters a
// non-finite scaling (overflowed w during an aggressive line-search
// probe) records NaN — the caller turns that into +Inf — and resets its
// scalings so the next evaluation restarts cleanly.
func (o *schurObjective) innerSolve() {
	o.forBlocks(len(o.groups), func(g int) {
		rows := o.groups[g]
		ok := true
		lastRel := math.Inf(1)
	sweeps:
		for sweep := 0; sweep < schurMaxSweeps; sweep++ {
			var maxRel float64
			for _, li := range rows {
				cols := o.localCols[li]
				partner := o.betaOf
				if o.isBeta[li] {
					partner = o.alphaOf
				}
				var denom float64
				for _, c := range cols {
					s := o.w[c]
					if p := partner[c]; p >= 0 {
						s *= o.scale[p]
					}
					denom += s
				}
				ns := o.localRHS[li] / denom
				if math.IsNaN(ns) || math.IsInf(ns, 0) || ns <= 0 {
					ok = false
					break sweeps
				}
				rel := math.Abs(ns-o.scale[li]) / ns
				o.scale[li] = ns
				if rel > maxRel {
					maxRel = rel
				}
			}
			lastRel = maxRel
			if maxRel <= schurInnerTol {
				break
			}
		}
		o.stalled[g] = lastRel > schurStallTol
		if !ok {
			o.stalled[g] = false // non-finite, not slow: handled via NaN
			for _, li := range rows {
				o.scale[li] = 1
			}
			o.groupLogs[g] = math.NaN()
			return
		}
		var logs float64
		for _, li := range rows {
			logs += o.localRHS[li] * math.Log(o.scale[li])
		}
		o.groupLogs[g] = logs
	})
}

// computeX materializes x_j = α·β·w_j and returns Σ_j x_j combined in
// ascending block order.
func (o *schurObjective) computeX() float64 {
	o.forBlocks(linalg.NumBlocks(o.nCols), func(b int) {
		lo, hi := linalg.BlockBounds(b, o.nCols)
		var sum float64
		for c := lo; c < hi; c++ {
			v := o.w[c]
			if a := o.alphaOf[c]; a >= 0 {
				v *= o.scale[a]
			}
			if bt := o.betaOf[c]; bt >= 0 {
				v *= o.scale[bt]
			}
			o.x[c] = v
			sum += v
		}
		o.blockSums[b] = sum
	})
	var sum float64
	for _, v := range o.blockSums {
		sum += v
	}
	return sum
}

// Eval computes g̃(ν) and ∇g̃(ν) = K x(ν) − k.
func (o *schurObjective) Eval(nu, grad []float64) float64 {
	o.computeW(nu)
	o.innerSolve()
	f := o.computeX()
	for _, gl := range o.groupLogs {
		f -= gl
	}
	f -= linalg.Dot(nu, o.krhs)

	m := o.k.Rows()
	o.forBlocks(linalg.NumBlocks(m), func(b int) {
		lo, hi := linalg.BlockBounds(b, m)
		o.k.MulVecRange(o.x, grad, lo, hi)
		for i := lo; i < hi; i++ {
			grad[i] -= o.krhs[i]
		}
	})
	if math.IsNaN(f) {
		// A failed inner solve (or Inf−Inf) — report an infinite value so
		// the line search backs off, exactly like an overflowed full dual.
		return math.Inf(1)
	}
	for _, st := range o.stalled {
		if st {
			// The inner scaling slowed past its budget — the outer duals are
			// heading for the boundary. +Inf makes the line search fail fast
			// so the caller's full-dual fallback takes over while the failed
			// attempt is still cheap.
			return math.Inf(1)
		}
	}
	return f
}

// Primal recovers x(ν) into dst (length = active variables). The inner
// state is already converged at the optimizer's final ν; the extra solve
// is a no-op sweep.
func (o *schurObjective) Primal(nu, dst []float64) {
	o.computeW(nu)
	o.innerSolve()
	o.computeX()
	copy(dst, o.x)
}

// localDual reports the recovered multiplier μ = log(scale) of an
// eliminated row, valid after Primal.
func (o *schurObjective) localDual(li int) float64 { return math.Log(o.scale[li]) }

// solveSchur runs the outer optimizer on the Schur-reduced dual and maps
// the result back onto the presolved system: the active primal values
// into xActive and one Lagrange multiplier per surviving row — ν for
// coupling rows, log of the recovered scaling for eliminated rows — into
// sol.Duals in presolved-row order, exactly like the full dual path.
func solveSchur(sol *Solution, obj *schurObjective, red *reduced, warm map[string]float64, opts Options, run linalg.Runner, xActive []float64) error {
	obj.setRunner(run)
	sol.Stats.ReducedDualDim = obj.Dim()

	nu := make([]float64, obj.Dim())
	if warm != nil {
		for ci, ri := range obj.coupIdx {
			if v, ok := warm[red.rows[ri].label]; ok {
				nu[ci] = v
			}
		}
		for li, ri := range obj.localIdx {
			if v, ok := warm[red.rows[ri].label]; ok {
				obj.seedScale(li, v)
			}
		}
	}

	if obj.Dim() == 0 {
		// Every surviving row was eliminated analytically (e.g. presolve
		// removed all coupling rows): one inner scaling solve is the
		// whole numeric solve.
		obj.Primal(nu, xActive)
		sol.Stats.Converged = true
	} else {
		var res solver.Result
		var err error
		if opts.Algorithm == LBFGS {
			res, err = solver.LBFGS(obj, nu, opts.Solver)
		} else {
			res, err = solver.SteepestDescent(obj, nu, opts.Solver)
		}
		if err != nil {
			// A failed reduced attempt — +Inf at the start (stalled inner
			// scaling on a boundary-bound system) or a collapsed line search
			// — is not fatal: report non-convergence so the caller falls back
			// to the full dual. The duals mapped below still carry the warm
			// seed plus whatever the inner solve recovered.
			sol.Stats.Converged = false
		} else {
			obj.Primal(res.X, xActive)
			sol.Stats.Iterations = res.Iterations
			sol.Stats.Evaluations = res.Evaluations
			sol.Stats.Converged = res.Converged
			nu = res.X
		}
	}

	duals := make([]float64, len(red.rows))
	for ci, ri := range obj.coupIdx {
		duals[ri] = nu[ci]
	}
	for li, ri := range obj.localIdx {
		duals[ri] = obj.localDual(li)
	}
	for i, row := range red.rows {
		sol.Duals = append(sol.Duals, ConstraintDual{Label: row.label, Kind: row.kind, Lambda: duals[i]})
	}
	return nil
}

package maxent

import (
	"slices"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/linalg"
)

// The structured Newton step. The dual's Hessian A·diag(x(λ))·Aᵀ is
// bordered block-diagonal: a bucket's QI- and SA-invariant rows touch only
// that bucket's terms, so they couple to each other and to the knowledge
// rows, never to another bucket's invariants. Ordering the invariant rows
// I first and the k coupling rows K last,
//
//	H = [H_II  H_IK]    H_II = diag(H_11, …, H_BB), one block per bucket
//	    [H_KI  H_KK]
//
// and the Newton system H·d = −g is solved by block elimination:
//
//	S = H_KK − Σ_b H_Kb·H_bb⁻¹·H_bK               (k×k Schur complement)
//	S·d_K = −g_K + Σ_b H_Kb·H_bb⁻¹·g_b
//	H_bb·d_b = −g_b − H_bK·d_K                     (each bucket)
//
// Each bucket block has at most ~10 rows and is Cholesky-factored once
// per step; a block row that is a combination of the others (dependent
// invariants, e.g. after presolve pinned a bucket's cross terms) is
// dropped, which is exact because the system is consistent. S is dense
// (knowledge rows span most buckets), held as a packed lower triangle and
// factored with a ridge when it is not numerically positive definite. A
// step costs O(k³/6) for S's factor plus the bucket terms, against
// O(m³/6) for the dense Hessian it replaces.

// Component sizes Auto hands to Newton. Below newtonMinRows coupling rows
// LBFGS converges in few iterations and the served shapes stay on it
// (DESIGN §6.7); above newtonMaxRows (K*) one step's O(k³) factorization
// and its k²/2-float factor outgrow LBFGS's iterations. newtonMaxRows also
// bounds every invariant block the step factors densely.
const (
	newtonMinRows = 32
	newtonMaxRows = 512
)

// schurRidges is the ladder of ridges, as fractions of S's largest
// diagonal entry, added to S in turn until it factors.
var schurRidges = [...]float64{0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2}

// pivotTol is the relative pivot tolerance of every factorization, the
// smallest ridge: a pivot at or below 1e-12 of its diagonal entry is
// taken for the roundoff of an exact zero.
const pivotTol = 1e-12

// invariantRow reports whether a row belongs to a bucket block.
func invariantRow(k constraint.Kind) bool {
	return k == constraint.QIInvariant || k == constraint.SAInvariant
}

// componentMethod resolves the dual algorithm for one presolved
// component. Auto runs Newton when the component has between
// newtonMinRows and newtonMaxRows coupling rows and no invariant block
// wider than newtonMaxRows, LBFGS otherwise; an explicit algorithm stays
// as it is. The Newton step is returned when the method is Newton.
func componentMethod(alg Algorithm, d *dualObjective, rows []rowData) (Algorithm, *newtonStep) {
	switch alg {
	case Auto:
		k := 0
		for _, r := range rows {
			if !invariantRow(r.kind) {
				k++
			}
		}
		if k < newtonMinRows || k > newtonMaxRows {
			return LBFGS, nil
		}
		if s := newNewtonStep(d, rows); s.widest <= newtonMaxRows {
			return Newton, s
		}
		return LBFGS, nil
	case Newton:
		return Newton, newNewtonStep(d, rows)
	}
	return alg, nil
}

// newtonStep holds one component's block structure and the buffers of
// its step. The structure is fixed by the constraint matrix; the numeric
// buffers are sized on the first step and reused by every later one, so
// steps allocate nothing. Nothing is pooled: the packed Schur factor
// (k(k+1)/2 floats) is garbage once its component returns.
type newtonStep struct {
	d *dualObjective
	k int // coupling rows, the order of S

	coupling []bool // per row: a coupling (non-invariant) row
	slot     []int  // per row: position in its block, or its index in S

	// Per block b, CSR-style: its rows (ascending, in slot order), its
	// variables, and the coupling rows touching those variables (S
	// indices, ascending). free lists the variables in no block.
	blockPtr, blockRows []int
	varPtr, vars        []int
	coupPtr, coups      []int
	free                []int
	widest              int // rows of the widest block

	factors   []float64 // packed block factors, block b at factorOff[b]
	factorOff []int
	schur     []float64 // packed S, then its factor
	rhs       []float64 // S's right-hand side, then d_K
	w         []float64 // per block: W = L_b⁻¹·H_bK, one p-column per coupling row
	z         []float64 // per block: a p-vector
	local     []int     // S index → column of w within the current block
}

// newNewtonStep derives the block structure of d's matrix: invariant rows
// sharing a variable fall into one block (the union-find below, which
// keeps each set's smallest row as its root), blocks numbered by their
// first row.
func newNewtonStep(d *dualObjective, rows []rowData) *newtonStep {
	m, n := d.a.Rows(), d.a.Cols()
	s := &newtonStep{d: d, coupling: make([]bool, m), slot: make([]int, m)}
	parent := make([]int, m)
	for r := range parent {
		parent[r] = r
		if !invariantRow(rows[r].kind) {
			s.coupling[r] = true
			s.slot[r] = s.k
			s.k++
		}
	}
	find := func(r int) int {
		for parent[r] != r {
			parent[r] = parent[parent[r]]
			r = parent[r]
		}
		return r
	}
	firstInv := func(j int) int {
		colRows, _ := d.cols.Col(j)
		for _, r := range colRows {
			if !s.coupling[r] {
				return r
			}
		}
		return -1
	}
	for j := 0; j < n; j++ {
		r0 := firstInv(j)
		if r0 < 0 {
			continue
		}
		colRows, _ := d.cols.Col(j)
		for _, r := range colRows {
			if a, b := find(r0), find(r); !s.coupling[r] && a != b {
				parent[max(a, b)] = min(a, b)
			}
		}
	}

	blockOf := make([]int, m) // −1 for coupling rows
	nb := 0
	for r := range blockOf {
		switch root := find(r); {
		case s.coupling[r]:
			blockOf[r] = -1
		case root == r:
			blockOf[r] = nb
			nb++
		default:
			blockOf[r] = blockOf[root]
		}
	}
	s.blockPtr, s.blockRows = groupBy(blockOf, nb)
	for b := 0; b < nb; b++ {
		blockRows := s.blockRows[s.blockPtr[b]:s.blockPtr[b+1]]
		s.widest = max(s.widest, len(blockRows))
		for l, r := range blockRows {
			s.slot[r] = l
		}
	}

	// A variable's invariant rows all share its block.
	varBlock := make([]int, n)
	for j := range varBlock {
		varBlock[j] = -1
		if r := firstInv(j); r >= 0 {
			varBlock[j] = blockOf[r]
		} else {
			s.free = append(s.free, j)
		}
	}
	s.varPtr, s.vars = groupBy(varBlock, nb)

	// Coupling rows per block, via a per-row stamp of the last block that
	// listed it.
	stamp := make([]int, s.k)
	for i := range stamp {
		stamp[i] = -1
	}
	s.coupPtr = make([]int, nb+1)
	for b := 0; b < nb; b++ {
		start := len(s.coups)
		for _, j := range s.vars[s.varPtr[b]:s.varPtr[b+1]] {
			colRows, _ := d.cols.Col(j)
			for _, r := range colRows {
				if c := s.slot[r]; s.coupling[r] && stamp[c] != b {
					stamp[c] = b
					s.coups = append(s.coups, c)
				}
			}
		}
		slices.Sort(s.coups[start:])
		s.coupPtr[b+1] = len(s.coups)
	}
	return s
}

// groupBy lists the indices i with key[i] ≥ 0 by key, ascending within
// a group: group g is items[ptr[g]:ptr[g+1]].
func groupBy(key []int, groups int) (ptr, items []int) {
	ptr = make([]int, groups+1)
	for _, g := range key {
		if g >= 0 {
			ptr[g+1]++
		}
	}
	for g := 0; g < groups; g++ {
		ptr[g+1] += ptr[g]
	}
	items = make([]int, ptr[groups])
	next := slices.Clone(ptr[:groups])
	for i, g := range key {
		if g >= 0 {
			items[next[g]] = i
			next[g]++
		}
	}
	return ptr, items
}

// alloc sizes the numeric buffers on the first step.
func (s *newtonStep) alloc() {
	nb := len(s.blockPtr) - 1
	s.factorOff = make([]int, nb+1)
	wLen := 0
	for b := 0; b < nb; b++ {
		p := s.blockPtr[b+1] - s.blockPtr[b]
		s.factorOff[b+1] = s.factorOff[b] + linalg.PackedLen(p)
		wLen = max(wLen, p*(s.coupPtr[b+1]-s.coupPtr[b]))
	}
	s.factors = make([]float64, s.factorOff[nb])
	s.schur = make([]float64, linalg.PackedLen(s.k))
	s.rhs = make([]float64, s.k)
	s.w = make([]float64, wLen)
	s.z = make([]float64, s.widest)
	s.local = make([]int, s.k)
}

// solve writes the Newton direction at λ, whose gradient is g, into dir.
// S is formed afresh for each ridge it is tried with; solve reports false
// when S does not factor even with the largest.
// Every pass is serial and in a fixed order, and x(λ) is bit-identical at
// every kernel width, so the step is too.
func (s *newtonStep) solve(lambda, g, dir []float64) bool {
	if s.factors == nil {
		s.alloc()
	}
	// x(λ) goes into Eval's buffer, which nothing reads between
	// evaluations.
	x := s.d.scratch.x
	s.d.Primal(lambda, x)
	s.factorBlocks(x)

	var maxDiag float64
	for i, ridge := range schurRidges {
		s.formSchur(x, g)
		for c := 0; c < s.k; c++ {
			diag := &s.schur[linalg.PackedRow(c)+c]
			if i == 0 {
				maxDiag = max(maxDiag, *diag)
			}
			*diag += ridge * maxDiag
		}
		if _, err := linalg.SolveSPD(s.schur, s.rhs, pivotTol); err == nil {
			s.backSubstitute(x, g, dir)
			return true
		}
	}
	return false
}

// block returns bucket block b's rows, variables and packed factor.
func (s *newtonStep) block(b int) (rows, vars []int, factor []float64) {
	return s.blockRows[s.blockPtr[b]:s.blockPtr[b+1]], s.vars[s.varPtr[b]:s.varPtr[b+1]],
		s.factors[s.factorOff[b]:s.factorOff[b+1]]
}

// factorBlocks forms every H_bb = A_b·diag(x)·A_bᵀ and factors it.
func (s *newtonStep) factorBlocks(x []float64) {
	for b := 0; b+1 < len(s.blockPtr); b++ {
		blockRows, vars, f := s.block(b)
		clear(f)
		for _, j := range vars {
			rows, vals := s.d.cols.Col(j)
			// Rows ascend within a column and slots ascend with rows
			// within a block, so e2 ≤ e1 addresses the lower triangle.
			for e1, r1 := range rows {
				if s.coupling[r1] {
					continue
				}
				v := x[j] * vals[e1]
				row := f[linalg.PackedRow(s.slot[r1]):]
				for e2, r2 := range rows[:e1+1] {
					if !s.coupling[r2] {
						row[s.slot[r2]] += v * vals[e2]
					}
				}
			}
		}
		linalg.Cholesky(f, len(blockRows), pivotTol)
	}
}

// formSchur writes S into s.schur and its right-hand side
// −g_K + Σ_b W_bᵀ·L_b⁻¹·(−g_b) into s.rhs, where W_b = L_b⁻¹·H_bK.
func (s *newtonStep) formSchur(x, g []float64) {
	clear(s.schur)
	for r, c := range s.slot {
		if s.coupling[r] {
			s.rhs[c] = -g[r]
		}
	}
	for b := 0; b+1 < len(s.blockPtr); b++ {
		blockRows, vars, f := s.block(b)
		p := len(blockRows)
		coups := s.coups[s.coupPtr[b]:s.coupPtr[b+1]]
		for a, c := range coups {
			s.local[c] = a
		}
		w := s.w[:p*len(coups)]
		clear(w)
		for _, j := range vars {
			rows, vals := s.d.cols.Col(j)
			for e1, r1 := range rows {
				if !s.coupling[r1] {
					continue
				}
				v := x[j] * vals[e1]
				s.addCoupling(v, rows[:e1+1], vals)
				col := w[s.local[s.slot[r1]]*p:]
				for e2, r2 := range rows {
					if !s.coupling[r2] {
						col[s.slot[r2]] += v * vals[e2]
					}
				}
			}
		}
		z := s.z[:p]
		for l, r := range blockRows {
			z[l] = -g[r]
		}
		linalg.ForwardSubst(f, p, z)
		for a := range coups {
			linalg.ForwardSubst(f, p, w[a*p:(a+1)*p])
		}
		for a, ca := range coups {
			wa := w[a*p : (a+1)*p]
			s.rhs[ca] -= linalg.Dot(wa, z)
			row := s.schur[linalg.PackedRow(ca):]
			for a2, cb := range coups[:a+1] {
				row[cb] -= linalg.Dot(wa, w[a2*p:(a2+1)*p])
			}
		}
	}
	for _, j := range s.free {
		rows, vals := s.d.cols.Col(j)
		for e1, r1 := range rows {
			if s.coupling[r1] {
				s.addCoupling(x[j]*vals[e1], rows[:e1+1], vals)
			}
		}
	}
}

// addCoupling adds v·a_r'j to S[r][r'] for the coupling row r, the last of
// rows, and every coupling row r' in rows: with v = x_j·a_rj, variable j's
// share of C·diag(x)·Cᵀ in row r. rows ascend, so their S indices do too.
func (s *newtonStep) addCoupling(v float64, rows []int, vals []float64) {
	row := s.schur[linalg.PackedRow(s.slot[rows[len(rows)-1]]):]
	for e, r := range rows {
		if s.coupling[r] {
			row[s.slot[r]] += v * vals[e]
		}
	}
}

// backSubstitute copies d_K from s.rhs into dir and solves each bucket
// block H_bb·d_b = −g_b − H_bK·d_K, forming H_bK·d_K = A_b·(x ∘ C_bᵀ·d_K)
// one variable at a time.
func (s *newtonStep) backSubstitute(x, g, dir []float64) {
	for r, c := range s.slot {
		if s.coupling[r] {
			dir[r] = s.rhs[c]
		}
	}
	for b := 0; b+1 < len(s.blockPtr); b++ {
		blockRows, vars, f := s.block(b)
		p := len(blockRows)
		u := s.z[:p]
		for l, r := range blockRows {
			u[l] = -g[r]
		}
		for _, j := range vars {
			rows, vals := s.d.cols.Col(j)
			var t float64
			for e, r := range rows {
				if s.coupling[r] {
					t += vals[e] * s.rhs[s.slot[r]]
				}
			}
			if t == 0 {
				continue
			}
			t *= x[j]
			for e, r := range rows {
				if !s.coupling[r] {
					u[s.slot[r]] -= vals[e] * t
				}
			}
		}
		linalg.ForwardSubst(f, p, u)
		linalg.BackSubst(f, p, u)
		for l, r := range blockRows {
			dir[r] = u[l]
		}
	}
}

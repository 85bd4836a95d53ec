package maxent

import (
	"fmt"
	"math"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/errs"
)

// presolveTol treats |value| below it as zero during propagation.
const presolveTol = 1e-12

// ErrInfeasible wraps a contradiction detected between constraints — for
// example, background knowledge inconsistent with the published data.
type ErrInfeasible struct{ Reason string }

func (e *ErrInfeasible) Error() string { return "maxent: infeasible constraints: " + e.Reason }

// Is makes every ErrInfeasible match the errs.ErrInfeasible sentinel, so
// callers classify infeasibility with errors.Is against the facade's
// exported taxonomy instead of type-asserting an internal type.
func (e *ErrInfeasible) Is(target error) bool { return target == errs.ErrInfeasible }

// rowData is a constraint in plain form: terms index the original
// variable space. The terms and coeffs slices may alias the source
// constraint.System's storage (see systemRows) and must be treated as
// immutable; any rewrite goes through copy-on-write in presolve.
type rowData struct {
	terms  []int
	coeffs []float64
	rhs    float64
	label  string
	kind   constraint.Kind
}

// rowOf views a constraint as rowData. Term and coefficient slices are
// shared with the constraint, not copied: presolve is copy-on-write (it
// allocates fresh slices only for the rows it actually rewrites), so the
// shared slices are treated as immutable throughout the solve.
func rowOf(c *constraint.Constraint) rowData {
	return rowData{terms: c.Terms, coeffs: c.Coeffs, rhs: c.RHS, label: c.Label, kind: c.Kind}
}

// systemRows extracts the system's constraints as rowData.
func systemRows(sys *constraint.System) []rowData {
	rows := make([]rowData, sys.Len())
	for i := range rows {
		rows[i] = rowOf(sys.At(i))
	}
	return rows
}

// reduced is the output of presolve: some variables pinned to constants,
// the rest active, and the surviving constraints rewritten over the
// active set.
type reduced struct {
	n      int       // original variable count
	fixed  []bool    // fixed[j] reports whether variable j is pinned
	value  []float64 // pinned value (0 for most), valid when fixed[j]
	rows   []rowData
	active []int // original indices of the active variables
	newIdx []int // original index -> active position, -1 if fixed or unmentioned
}

// presolve propagates the constraints that determine variables outright:
//
//   - a zero-RHS row with positive coefficients pins all its variables to
//     zero (how negative association rules such as P(Breast Cancer|male)=0
//     collapse terms, enabling the Sec. 3.1 style exact inferences);
//   - a row reduced to a single variable pins it to rhs/coeff;
//
// repeating until a fixed point. Rows whose variables are all pinned must
// be satisfied, otherwise the system is infeasible. Negative pinned
// values also signal infeasibility (probabilities cannot be negative).
func presolve(n int, input []rowData) (*reduced, error) {
	r := &reduced{
		n:     n,
		fixed: make([]bool, n),
		value: make([]float64, n),
	}

	type workRow struct {
		rowData
		done bool
	}
	rows := make([]workRow, len(input))
	for i := range input {
		rows[i] = workRow{rowData: input[i]}
	}

	fix := func(j int, v float64, label string) error {
		if v < -presolveTol {
			return &ErrInfeasible{Reason: fmt.Sprintf("%s forces P-term to %g < 0", label, v)}
		}
		if v < 0 {
			v = 0
		}
		if r.fixed[j] {
			if math.Abs(r.value[j]-v) > 1e-9 {
				return &ErrInfeasible{Reason: fmt.Sprintf("%s re-pins term to %g, already %g", label, v, r.value[j])}
			}
			return nil
		}
		r.fixed[j] = true
		r.value[j] = v
		return nil
	}

	for changed := true; changed; {
		changed = false
		for i := range rows {
			row := &rows[i]
			if row.done {
				continue
			}
			// Substitute pinned variables, copy-on-write: input rows share
			// their term/coeff slices with the caller's constraint system,
			// so a row is rewritten onto fresh slices only when it actually
			// mentions a pinned variable. Untouched rows keep aliasing the
			// caller's (immutable) storage.
			needSub := false
			for _, j := range row.terms {
				if r.fixed[j] {
					needSub = true
					break
				}
			}
			if needSub {
				outT := make([]int, 0, len(row.terms))
				outC := make([]float64, 0, len(row.coeffs))
				for k, j := range row.terms {
					if r.fixed[j] {
						row.rhs -= row.coeffs[k] * r.value[j]
						continue
					}
					outT = append(outT, j)
					outC = append(outC, row.coeffs[k])
				}
				row.terms, row.coeffs = outT, outC
			}

			switch {
			case len(row.terms) == 0:
				if math.Abs(row.rhs) > 1e-9 {
					return nil, &ErrInfeasible{Reason: fmt.Sprintf("%s reduces to 0 = %g", row.label, row.rhs)}
				}
				row.done = true
				changed = true
			case len(row.terms) == 1:
				if err := fix(row.terms[0], row.rhs/row.coeffs[0], row.label); err != nil {
					return nil, err
				}
				row.done = true
				changed = true
			case math.Abs(row.rhs) <= presolveTol && allPositive(row.coeffs):
				for _, j := range row.terms {
					if err := fix(j, 0, row.label); err != nil {
						return nil, err
					}
				}
				row.done = true
				changed = true
			}
		}
	}

	// Active variables are those mentioned by a surviving row; variables
	// mentioned by no row at all (possible when solving a filtered
	// sub-system) are neither fixed nor active and keep whatever value
	// the caller initialized them with.
	mentioned := make([]bool, n)
	for i := range rows {
		if rows[i].done {
			continue
		}
		for _, j := range rows[i].terms {
			mentioned[j] = true
		}
		r.rows = append(r.rows, rows[i].rowData)
	}
	r.newIdx = make([]int, n)
	for j := 0; j < n; j++ {
		if r.fixed[j] || !mentioned[j] {
			r.newIdx[j] = -1
			continue
		}
		r.newIdx[j] = len(r.active)
		r.active = append(r.active, j)
	}
	return r, nil
}

func allPositive(coeffs []float64) bool {
	for _, c := range coeffs {
		if c <= 0 {
			return false
		}
	}
	return true
}

// numFixed counts pinned variables.
func (r *reduced) numFixed() int {
	n := 0
	for _, f := range r.fixed {
		if f {
			n++
		}
	}
	return n
}

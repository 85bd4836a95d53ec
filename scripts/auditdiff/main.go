// Command auditdiff compares two solve-audit snapshots written by
// pmaxent -audit-out (or experiments -audit-dir) and reports drift: a
// per-family residual profile that moved, a binding-knowledge rule set
// that changed, a different convergence outcome, or a trajectory that
// takes a different number of iterations or lands somewhere else.
//
// Usage:
//
//	auditdiff [-rtol 0.05] [-atol 1e-9] [-iter-slack 0.10] old.json new.json
//
// Exit status 0 means no drift beyond the tolerances; 1 means drift (each
// difference is printed, naming the family or rule that moved); 2 means
// the snapshots could not be read.
//
// The comparison is deliberately tolerance-based: two healthy solves of
// the same problem at different commits legitimately differ in the last
// few bits of every residual, so exact equality would flag every rebuild.
// Drift worth failing CI over is a family whose residual profile moved
// beyond -rtol/-atol, a knowledge rule entering or leaving the binding
// set, or an iteration count off by more than -iter-slack.
//
// Provenance fields (workers, kernel_workers, reduced_dual_dim, build,
// request_id) are deliberately excluded from the comparison: the
// solver's blocked kernels are bit-deterministic at any worker count, so
// auditing one solve run serially (GOMAXPROCS=1) and once with
// GOMAXPROCS=N and diffing the snapshots must report zero drift — that
// clean diff is the parity certificate for the parallel kernels.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"privacymaxent/internal/audit"
)

func main() {
	var (
		rtol      = flag.Float64("rtol", 0.05, "relative tolerance for residual/entropy comparisons")
		atol      = flag.Float64("atol", 1e-9, "absolute tolerance floor (differences below it never count as drift)")
		iterSlack = flag.Float64("iter-slack", 0.10, "fractional slack on the iteration count")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: auditdiff [flags] old.json new.json")
		os.Exit(2)
	}
	oldA, err := audit.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditdiff:", err)
		os.Exit(2)
	}
	newA, err := audit.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditdiff:", err)
		os.Exit(2)
	}
	drifts := diff(oldA, newA, *rtol, *atol, *iterSlack)
	if len(drifts) == 0 {
		fmt.Printf("no drift: %s and %s agree within rtol=%g atol=%g\n", flag.Arg(0), flag.Arg(1), *rtol, *atol)
		return
	}
	fmt.Printf("%d drift(s) between %s and %s:\n", len(drifts), flag.Arg(0), flag.Arg(1))
	for _, d := range drifts {
		fmt.Println("  -", d)
	}
	os.Exit(1)
}

// withinTol reports whether a and b agree up to the mixed
// relative/absolute tolerance.
func withinTol(a, b, rtol, atol float64) bool {
	d := math.Abs(a - b)
	if d <= atol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= rtol*scale
}

// diff returns one human-readable line per drift found.
func diff(oldA, newA *audit.SolveAudit, rtol, atol, iterSlack float64) []string {
	var out []string

	// Outcome drift: convergence and feasibility are binary health bits.
	if oldA.Converged != newA.Converged {
		out = append(out, fmt.Sprintf("convergence changed: %v -> %v", oldA.Converged, newA.Converged))
	}
	if oldA.Feasible != newA.Feasible {
		out = append(out, fmt.Sprintf("feasibility changed: %v -> %v", oldA.Feasible, newA.Feasible))
	}

	// Per-family residual profile.
	oldFams := familyMap(oldA)
	newFams := familyMap(newA)
	for _, name := range familyNames(oldFams, newFams) {
		of, oldHas := oldFams[name]
		nf, newHas := newFams[name]
		switch {
		case !newHas:
			out = append(out, fmt.Sprintf("family %q disappeared (%d rows before)", name, of.Rows))
		case !oldHas:
			out = append(out, fmt.Sprintf("family %q appeared (%d rows)", name, nf.Rows))
		default:
			if of.Rows != nf.Rows {
				out = append(out, fmt.Sprintf("family %q rows changed: %d -> %d", name, of.Rows, nf.Rows))
			}
			if of.Violations != nf.Violations {
				out = append(out, fmt.Sprintf("family %q violations changed: %d -> %d", name, of.Violations, nf.Violations))
			}
			if !withinTol(of.MaxAbsResidual, nf.MaxAbsResidual, rtol, atol) {
				out = append(out, fmt.Sprintf("family %q max residual drifted: %.3e -> %.3e", name, of.MaxAbsResidual, nf.MaxAbsResidual))
			}
			if !withinTol(of.MeanAbsResidual, nf.MeanAbsResidual, rtol, atol) {
				out = append(out, fmt.Sprintf("family %q mean residual drifted: %.3e -> %.3e", name, of.MeanAbsResidual, nf.MeanAbsResidual))
			}
		}
	}

	// Binding-knowledge set: membership matters, the λ magnitude ordering
	// within the set is allowed to wobble.
	oldSet := bindingSet(oldA)
	newSet := bindingSet(newA)
	for _, label := range sortedKeys(oldSet) {
		if !newSet[label] {
			out = append(out, fmt.Sprintf("knowledge rule no longer binding: %s", label))
		}
	}
	for _, label := range sortedKeys(newSet) {
		if !oldSet[label] {
			out = append(out, fmt.Sprintf("knowledge rule newly binding: %s", label))
		}
	}

	// Solution-level scalars.
	if !withinTol(oldA.Entropy, newA.Entropy, rtol, atol) {
		out = append(out, fmt.Sprintf("entropy drifted: %.6g -> %.6g nats", oldA.Entropy, newA.Entropy))
	}
	if !withinTol(oldA.MaxViolation, newA.MaxViolation, rtol, atol) {
		out = append(out, fmt.Sprintf("max violation drifted: %.3e -> %.3e", oldA.MaxViolation, newA.MaxViolation))
	}

	// Trajectory: iteration count within slack, and the final point must
	// land at a comparable objective.
	oi, ni := oldA.Iterations, newA.Iterations
	slack := iterSlack * math.Max(float64(oi), float64(ni))
	if math.Abs(float64(oi-ni)) > math.Max(slack, 1) {
		out = append(out, fmt.Sprintf("iteration count drifted: %d -> %d (slack %.0f)", oi, ni, math.Max(slack, 1)))
	}
	if len(oldA.Trajectory) > 0 && len(newA.Trajectory) > 0 {
		of := oldA.Trajectory[len(oldA.Trajectory)-1]
		nf := newA.Trajectory[len(newA.Trajectory)-1]
		if !withinTol(of.Objective, nf.Objective, rtol, atol) {
			out = append(out, fmt.Sprintf("final objective drifted: %.6g -> %.6g", of.Objective, nf.Objective))
		}
	} else if (len(oldA.Trajectory) == 0) != (len(newA.Trajectory) == 0) {
		out = append(out, fmt.Sprintf("trajectory presence changed: %d -> %d points", len(oldA.Trajectory), len(newA.Trajectory)))
	}

	return out
}

func familyMap(a *audit.SolveAudit) map[string]audit.FamilySummary {
	m := make(map[string]audit.FamilySummary, len(a.Families))
	for _, f := range a.Families {
		m[f.Family] = f
	}
	return m
}

func familyNames(a, b map[string]audit.FamilySummary) []string {
	seen := map[string]bool{}
	var names []string
	for n := range a {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range b {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// bindingSet keys the binding-knowledge rows by label. Rules whose
// multiplier is numerically negligible are excluded: a λ that flips from
// 1e-14 to 0 across commits is noise, not a rule gaining or losing power.
func bindingSet(a *audit.SolveAudit) map[string]bool {
	set := map[string]bool{}
	for _, d := range a.BindingKnowledge {
		if math.Abs(d.Lambda) > 1e-9 {
			set[strings.TrimSpace(d.Label)] = true
		}
	}
	return set
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

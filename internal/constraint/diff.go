package constraint

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file implements the constraint-system differ behind incremental
// (delta) re-solves: compare a new system against a previously solved
// one over the same Space and classify each connected component — the
// Sec. 5.5 decomposition unit — so the solver can reuse converged work.
//
// Classification rules:
//
//   - Clean: the component covers exactly the same bucket set as an old
//     component and carries an identical multiset of rows, where row
//     identity is content only (kind, terms, coefficient bits, RHS bits)
//     and deliberately excludes the label. Identical subproblem ⇒ the
//     converged posterior slice and Lagrange multipliers of the old
//     component transfer verbatim: label renames and row reordering diff
//     as clean.
//   - Dirty: the component's buckets overlap an old component's, but the
//     rows differ (a coefficient or RHS changed, a row was added or
//     removed, or components split/merged between publications). The old
//     rows are reported so the re-solve can warm-start from their duals.
//   - New: the component touches only buckets no old component covered —
//     nothing to reuse, solved cold.
//
// A nil old system, or one built over a different Space (pointer
// identity — the term indexing is Space-specific), degrades every
// component to New, which is always correct.

// DiffClass classifies one component of a system diff.
type DiffClass int

const (
	// DiffClean marks a component identical to an old one: reuse its
	// converged solution verbatim, zero iterations.
	DiffClean DiffClass = iota
	// DiffDirty marks a changed component: re-solve, warm-started from
	// the old component's duals.
	DiffDirty
	// DiffNew marks a component with no old counterpart: solve cold.
	DiffNew
)

// String names the class.
func (c DiffClass) String() string {
	switch c {
	case DiffClean:
		return "clean"
	case DiffDirty:
		return "dirty"
	case DiffNew:
		return "new"
	default:
		return fmt.Sprintf("DiffClass(%d)", int(c))
	}
}

// ComponentDiff describes one connected component of the new system and
// how it relates to the old one.
type ComponentDiff struct {
	// Class is the reuse classification.
	Class DiffClass
	// Root is the component's union-find root bucket — the same
	// representative the solver's decomposition assigns, so diff
	// components align 1:1 with solve components.
	Root int
	// Buckets lists the component's buckets, ascending.
	Buckets []int
	// Rows lists the component's constraint indices in the new system,
	// in system order.
	Rows []int
	// OldRows depends on Class: for DiffClean it pairs 1:1 with Rows
	// (OldRows[i] is the old row whose content matches Rows[i], the
	// mapping that transfers duals across label renames); for DiffDirty
	// it lists the rows of every overlapping old component (the
	// warm-start source); for DiffNew it is nil.
	OldRows []int
}

// SystemDiff is the full classification of a new system against an old
// one. Components are ordered by ascending Root, matching the solver's
// deterministic component order.
type SystemDiff struct {
	Components []ComponentDiff
	// Clean, Dirty and New count components per class.
	Clean, Dirty, New int
}

// DiffSystems classifies every connected component of new against old.
// old may be nil (or over a different Space): everything diffs as New.
func DiffSystems(old, new *System) *SystemDiff {
	d := &SystemDiff{}
	newComps := Components(new, TouchedBuckets(new))
	if old == nil || old.space != new.space {
		for _, nc := range newComps {
			d.Components = append(d.Components, ComponentDiff{
				Class: DiffNew, Root: nc.Root, Buckets: nc.Buckets, Rows: nc.Rows,
			})
			d.New++
		}
		return d
	}
	oldComps := Components(old, TouchedBuckets(old))
	byKey := make(map[string]int, len(oldComps))
	bucketOwner := make(map[int]int)
	for i := range oldComps {
		byKey[bucketKey(oldComps[i].Buckets)] = i
		for _, b := range oldComps[i].Buckets {
			bucketOwner[b] = i
		}
	}
	for _, nc := range newComps {
		cd := ComponentDiff{Root: nc.Root, Buckets: nc.Buckets, Rows: nc.Rows}
		if oi, ok := byKey[bucketKey(nc.Buckets)]; ok {
			oc := oldComps[oi]
			if paired, clean := matchRows(old, new, oc.Rows, nc.Rows); clean {
				cd.Class = DiffClean
				cd.OldRows = paired
			} else {
				cd.Class = DiffDirty
				cd.OldRows = append([]int(nil), oc.Rows...)
			}
		} else {
			seen := make(map[int]bool)
			var oldRows []int
			for _, b := range nc.Buckets {
				if oi, ok := bucketOwner[b]; ok && !seen[oi] {
					seen[oi] = true
					oldRows = append(oldRows, oldComps[oi].Rows...)
				}
			}
			if len(oldRows) > 0 {
				sort.Ints(oldRows)
				cd.Class = DiffDirty
				cd.OldRows = oldRows
			} else {
				cd.Class = DiffNew
			}
		}
		switch cd.Class {
		case DiffClean:
			d.Clean++
		case DiffDirty:
			d.Dirty++
		default:
			d.New++
		}
		d.Components = append(d.Components, cd)
	}
	return d
}

// Component is one connected component of a system (the Sec. 5.5
// decomposition unit): its union-find root bucket, its buckets, and its
// constraint indices.
type Component struct {
	// Root is the component's representative bucket.
	Root int
	// Buckets lists the component's buckets, ascending.
	Buckets []int
	// Rows lists the component's constraint indices, in system order.
	Rows []int
}

// Components partitions the system's constraints into the connected
// components both the solver's decomposition and the differ work on:
// union-find over the touched buckets, which must be TouchedBuckets(s),
// linked by coupling rows (any kind other than the bucket-local QI/SA
// invariants); coupling rows join the component of their first term's
// bucket, invariant rows of touched buckets join their bucket's
// component, and empty rows are skipped. Components come out ordered by
// ascending root.
func Components(s *System, touched []int) []Component {
	sp := s.space
	if len(touched) == 0 {
		return nil
	}
	parent := make(map[int]int, len(touched))
	for _, b := range touched {
		parent[b] = b
	}
	var find func(int) int
	find = func(b int) int {
		if parent[b] != b {
			parent[b] = find(parent[b])
		}
		return parent[b]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	coupling := func(k Kind) bool { return k != QIInvariant && k != SAInvariant }
	for i := range s.cons {
		c := &s.cons[i]
		if !coupling(c.Kind) || len(c.Terms) == 0 {
			continue
		}
		first := sp.Term(c.Terms[0]).Bucket
		for _, t := range c.Terms[1:] {
			union(first, sp.Term(t).Bucket)
		}
	}
	touchedSet := make(map[int]bool, len(touched))
	for _, b := range touched {
		touchedSet[b] = true
	}
	rowsByRoot := map[int][]int{}
	for i := range s.cons {
		c := &s.cons[i]
		if len(c.Terms) == 0 {
			continue
		}
		b := sp.Term(c.Terms[0]).Bucket
		if coupling(c.Kind) || touchedSet[b] {
			r := find(b)
			rowsByRoot[r] = append(rowsByRoot[r], i)
		}
	}
	bucketsByRoot := map[int][]int{}
	for _, b := range touched {
		r := find(b)
		bucketsByRoot[r] = append(bucketsByRoot[r], b)
	}
	roots := make([]int, 0, len(rowsByRoot))
	for r := range rowsByRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]Component, 0, len(roots))
	for _, r := range roots {
		bs := bucketsByRoot[r]
		sort.Ints(bs)
		out = append(out, Component{Root: r, Buckets: bs, Rows: rowsByRoot[r]})
	}
	return out
}

// bucketKey renders a sorted bucket list as a map key.
func bucketKey(buckets []int) string {
	var b strings.Builder
	for i, v := range buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// rowSignature is the content identity of a row: kind, RHS bits, and the
// (term, coefficient-bits) sequence. The label is deliberately excluded
// so renames diff as clean; term order is part of the signature (builders
// emit terms in deterministic order, so a reordering of terms within a
// row indicates a genuinely different construction and diffs dirty,
// which is always safe).
func rowSignature(c *Constraint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;%016x", int(c.Kind), math.Float64bits(c.RHS))
	for k, t := range c.Terms {
		fmt.Fprintf(&b, ";%d:%016x", t, math.Float64bits(c.Coeffs[k]))
	}
	return b.String()
}

// matchRows compares two components' rows as multisets of content
// signatures. On a match it returns old-row indices paired 1:1 with
// newRows (duplicate signatures pair in system order, which is
// well-defined because identical rows are interchangeable).
func matchRows(old, new *System, oldRows, newRows []int) ([]int, bool) {
	if len(oldRows) != len(newRows) {
		return nil, false
	}
	bySig := make(map[string][]int, len(oldRows))
	for _, i := range oldRows {
		sig := rowSignature(old.At(i))
		bySig[sig] = append(bySig[sig], i)
	}
	paired := make([]int, 0, len(newRows))
	for _, i := range newRows {
		sig := rowSignature(new.At(i))
		q := bySig[sig]
		if len(q) == 0 {
			return nil, false
		}
		paired = append(paired, q[0])
		bySig[sig] = q[1:]
	}
	return paired, true
}

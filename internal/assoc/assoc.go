// Package assoc mines the positive and negative association rules between
// QI attribute subsets and the sensitive attribute that the paper uses as
// its bound on background knowledge (Sec. 4.4, Top-(K+, K−) strongest
// associations). Rules are mined from the original data D, which Sec. 4.2
// argues is the right source: knowledge inconsistent with D is incorrect
// for D regardless of its general truth.
package assoc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/errs"
	"privacymaxent/internal/pool"
	"privacymaxent/internal/telemetry"
)

// ErrInvalidOptions marks mining options the table cannot satisfy: a
// subset size outside [1, number of QI attributes], or a size listed
// twice (which would mine every subset of that size twice and return
// each rule twice). Callers that take sizes from a client, like pmaxentd,
// report it as a bad request.
var ErrInvalidOptions = errors.New("assoc: invalid options")

// Rule is an association between a QI-subset condition Qv and a sensitive
// value: positive rules Qv ⇒ s say P(s|Qv) is high; negative rules
// Qv ⇒ ¬s say it is low (the paper's breast-cancer example).
type Rule struct {
	// Attrs are schema positions of the conditioned QI attributes, with
	// parallel Values; always sorted by attribute position.
	Attrs  []int
	Values []int
	// SA is the sensitive code the rule concerns.
	SA int
	// Positive distinguishes Qv ⇒ s from Qv ⇒ ¬s.
	Positive bool
	// Confidence is P(s|Qv) for positive rules and P(¬s|Qv) for negative
	// rules, computed exactly from the mined table.
	Confidence float64
	// Support is the number of records witnessing the rule head:
	// count(Qv ∧ s) for positive, count(Qv ∧ ¬s) for negative.
	Support int
	// CondCount is count(Qv), the body support.
	CondCount int
}

// PSA returns the conditional probability P(SA | Qv) the rule pins — the
// value fed to the ME constraint regardless of rule polarity.
func (r *Rule) PSA() float64 {
	if r.Positive {
		return r.Confidence
	}
	return 1 - r.Confidence
}

// Knowledge converts the rule into the background-knowledge statement
// P(SA | Qv) = PSA() used to build an ME constraint.
func (r *Rule) Knowledge() constraint.DistributionKnowledge {
	return constraint.DistributionKnowledge{
		Attrs:  append([]int(nil), r.Attrs...),
		Values: append([]int(nil), r.Values...),
		SA:     r.SA,
		P:      r.PSA(),
	}
}

// String renders the rule, e.g. "{Gender=male} => ¬Breast Cancer (conf 1.00, sup 6)".
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range r.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "a%d=%d", r.Attrs[i], r.Values[i])
	}
	b.WriteString("} => ")
	if !r.Positive {
		b.WriteString("¬")
	}
	fmt.Fprintf(&b, "s%d (conf %.3f, sup %d)", r.SA, r.Confidence, r.Support)
	return b.String()
}

// Options configures mining.
type Options struct {
	// MinSupport is the minimum number of witnessing records; the paper
	// uses 3 ("each association rule must be supported by at least three
	// records"). Values below 1 default to 1.
	MinSupport int
	// Sizes lists the QI-subset sizes T to mine (the paper's Figure 6
	// varies T from 1 to the number of QI attributes), each at most once.
	// Empty means every size from 1 to NumQI.
	Sizes []int
	// Workers bounds how many attribute subsets are mined concurrently;
	// values below 2 mine sequentially. The rules are the same, in the
	// same order, at every worker count.
	Workers int
}

// Mine enumerates every QI attribute subset of the requested sizes,
// groups records by the subset's projected values, and emits the positive
// and negative rules meeting the support threshold. It is a thin wrapper
// over MineContext with a background context.
func Mine(t *dataset.Table, opts Options) ([]Rule, error) {
	return MineContext(context.Background(), t, opts)
}

// MineContext is Mine with cancellation: once ctx is done, mining stops
// between subsets and the context's error is returned. A telemetry span
// ("assoc.mine") is emitted when a tracer is installed in ctx.
//
// The rules come back strongest first: confidence descending, then
// support descending, then by condition size, by the conditioned
// attributes and their values (compared position by position), by SA
// code, and positive before negative. No two rules tie on all of these,
// so the order, and every Top-K selection from it, is a function of the
// table and the options alone.
func MineContext(ctx context.Context, t *dataset.Table, opts Options) ([]Rule, error) {
	_, span := telemetry.Start(ctx, "assoc.mine",
		telemetry.Int("records", t.Len()),
		telemetry.Int("min_support", opts.MinSupport))
	defer span.End()
	schema := t.Schema()
	if schema.SAIndex() < 0 {
		return nil, fmt.Errorf("assoc: table has no sensitive attribute: %w", errs.ErrNoSensitiveAttribute)
	}
	qi := schema.QIIndices()
	if len(qi) == 0 {
		return nil, fmt.Errorf("assoc: table has no quasi-identifier attributes: %w", errs.ErrInvalidSchema)
	}
	minSup := max(opts.MinSupport, 1)
	sizes := opts.Sizes
	if len(sizes) == 0 {
		for k := 1; k <= len(qi); k++ {
			sizes = append(sizes, k)
		}
	}
	seen := make([]bool, len(qi)+1)
	for _, k := range sizes {
		if k < 1 || k > len(qi) {
			return nil, fmt.Errorf("%w: subset size %d out of range [1,%d]", ErrInvalidOptions, k, len(qi))
		}
		if seen[k] {
			return nil, fmt.Errorf("%w: subset size %d listed twice", ErrInvalidOptions, k)
		}
		seen[k] = true
	}

	var subsets [][]int
	for _, k := range sizes {
		forEachSubset(len(qi), k, func(idx []int) {
			attrs := make([]int, len(idx))
			for i, p := range idx {
				attrs[i] = qi[p]
			}
			subsets = append(subsets, attrs)
		})
	}

	// Subsets are grouped independently on the shared worker pool (the
	// same pool type the solver's component and kernel parallelism draws
	// from; below 2 workers it is a plain loop). Each task writes only its
	// own slot, and merge orders the rules under a total order, so the
	// result does not depend on which worker grouped which subset.
	cols := newColumns(t)
	groups := make([]subsetGroups, len(subsets))
	p := pool.New(opts.Workers)
	p.ParallelFor(ctx, len(subsets), 0, func(i int) {
		groups[i] = cols.group(subsets[i], minSup)
	})
	p.Close()
	// ParallelFor stops starting subsets once ctx is done; a partial
	// groups slice must not masquerade as a full mine.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rules := merge(groups, cols.saCard, minSup)
	span.SetAttr(telemetry.Int("rules", len(rules)))
	return rules, nil
}

// columns holds a table's codes column by column, the layout the
// counting sorts in group read.
type columns struct {
	codes  [][]int32 // by schema position; the SA's column is sa
	cards  []int     // domain size by schema position
	sa     []int32
	saCard int
}

func newColumns(t *dataset.Table) *columns {
	schema := t.Schema()
	c := &columns{
		codes:  make([][]int32, schema.Len()),
		cards:  make([]int, schema.Len()),
		saCard: schema.SA().Cardinality(),
	}
	for _, a := range schema.QIIndices() {
		c.codes[a] = make([]int32, t.Len())
		c.cards[a] = schema.Attr(a).Cardinality()
	}
	c.sa = make([]int32, t.Len())
	for row := 0; row < t.Len(); row++ {
		r := t.Row(row)
		for _, a := range schema.QIIndices() {
			c.codes[a][row] = int32(r[a])
		}
		c.sa[row] = int32(t.SACode(row))
	}
	return c
}

// subsetGroups holds one attribute subset's groups that reach the
// support threshold: the distinct value tuples of attrs that at least
// minSup records share, in ascending lexicographic order of the tuples.
// A smaller group can witness no rule of either polarity.
type subsetGroups struct {
	attrs []int
	// values holds group g's tuple at [g*len(attrs), (g+1)*len(attrs)).
	values []int
	// count is each group's record count, count(Qv).
	count []int
	// perSA holds group g's record count per SA code at
	// [g*saCard, (g+1)*saCard).
	perSA []int32
	// rules is the number of rules the groups emit.
	rules int
}

// valuesOf returns group g's value tuple, capped so that appending to
// one rule's Values cannot write into the next group's.
func (s *subsetGroups) valuesOf(g int) []int {
	n := len(s.attrs)
	return s.values[g*n : (g+1)*n : (g+1)*n]
}

// group groups the records by their codes on attrs. A stable counting
// sort of row indices per attribute, last attribute first, leaves the
// rows in lexicographic order of their tuples (an LSD radix sort), so
// each group is a run. Each pass costs O(records + domain size) for any
// domain size, and no key is ever built.
func (c *columns) group(attrs []int, minSup int) subsetGroups {
	n := len(c.sa)
	perm, next := make([]int32, n), make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for k := len(attrs) - 1; k >= 0; k-- {
		col := c.codes[attrs[k]]
		start := make([]int, c.cards[attrs[k]]+1)
		for _, r := range perm {
			start[col[r]+1]++
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, r := range perm {
			v := col[r]
			next[start[v]] = r
			start[v]++
		}
		perm, next = next, perm
	}

	s := subsetGroups{attrs: attrs}
	tally := make([]int32, c.saCard)
	for lo := 0; lo < n; {
		first := perm[lo]
		hi := lo + 1
		for hi < n && c.sameTuple(attrs, first, perm[hi]) {
			hi++
		}
		if size := hi - lo; size >= minSup {
			for _, a := range attrs {
				s.values = append(s.values, int(c.codes[a][first]))
			}
			s.count = append(s.count, size)
			for _, r := range perm[lo:hi] {
				tally[c.sa[r]]++
			}
			for _, pos := range tally {
				if int(pos) >= minSup {
					s.rules++
				}
				if size-int(pos) >= minSup {
					s.rules++
				}
			}
			s.perSA = append(s.perSA, tally...)
			clear(tally)
		}
		lo = hi
	}
	return s
}

// sameTuple reports whether rows x and y agree on every attribute of attrs.
func (c *columns) sameTuple(attrs []int, x, y int32) bool {
	for _, a := range attrs {
		if c.codes[a][x] != c.codes[a][y] {
			return false
		}
	}
	return true
}

// groupRef names group g of subset sub.
type groupRef struct{ sub, g int32 }

// ruleClass stands for the rules of one (support, group size) pair,
// which share their confidence support/size.
type ruleClass struct {
	conf float64
	sup  int
	id   int32
}

// merge emits every subset's rules in the order MineContext documents,
// writing each Rule once into a slice sized from the per-subset counts.
//
// It ranks the groups structurally (condition size, then attributes and
// values position by position). Walking the groups in rank order, and
// each group's rules by SA code, positive first, visits the rules in the
// order of every tie-break after support. Confidence and support depend
// only on a rule's class, its (support, group size) pair, and the
// classes are few, so merge sorts the classes by confidence and support
// and then places each class's rules in walk order: a counting sort.
func merge(subs []subsetGroups, saCard, minSup int) []Rule {
	var refs []groupRef
	maxSize, nRules := 0, 0
	for i := range subs {
		nRules += subs[i].rules
		for g, size := range subs[i].count {
			refs = append(refs, groupRef{int32(i), int32(g)})
			maxSize = max(maxSize, size)
		}
	}
	if nRules == 0 {
		return nil
	}
	slices.SortFunc(refs, func(a, b groupRef) int {
		x, y := &subs[a.sub], &subs[b.sub]
		if c := cmp.Compare(len(x.attrs), len(y.attrs)); c != 0 {
			return c
		}
		xv, yv := x.valuesOf(int(a.g)), y.valuesOf(int(b.g))
		for k := range x.attrs {
			if c := cmp.Compare(x.attrs[k], y.attrs[k]); c != 0 {
				return c
			}
			if c := cmp.Compare(xv[k], yv[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	walk := func(fn func(ref groupRef, sa int, positive bool, sup, size int)) {
		for _, ref := range refs {
			s := &subs[ref.sub]
			size := s.count[ref.g]
			for sa, pos := range s.perSA[int(ref.g)*saCard:][:saCard] {
				if int(pos) >= minSup {
					fn(ref, sa, true, int(pos), size)
				}
				if neg := size - int(pos); neg >= minSup {
					fn(ref, sa, false, neg, size)
				}
			}
		}
	}

	// ids[size][sup] is a class's id plus one. Only sizes some group has
	// get a row, so the rows hold at most as many entries as the groups
	// hold records, plus one per group.
	ids := make([][]int32, maxSize+1)
	var classes []ruleClass
	var next []int // per class id: its rule count, then its next slot
	walk(func(_ groupRef, _ int, _ bool, sup, size int) {
		if ids[size] == nil {
			ids[size] = make([]int32, size+1)
		}
		id := ids[size][sup]
		if id == 0 {
			classes = append(classes, ruleClass{float64(sup) / float64(size), sup, int32(len(classes))})
			next = append(next, 0)
			id = int32(len(classes))
			ids[size][sup] = id
		}
		next[id-1]++
	})
	slices.SortFunc(classes, func(a, b ruleClass) int {
		if c := cmp.Compare(b.conf, a.conf); c != 0 {
			return c
		}
		return cmp.Compare(b.sup, a.sup)
	})
	at := 0
	for _, c := range classes {
		at, next[c.id] = at+next[c.id], at
	}

	rules := make([]Rule, nRules)
	walk(func(ref groupRef, sa int, positive bool, sup, size int) {
		id := ids[size][sup] - 1
		s := &subs[ref.sub]
		rules[next[id]] = Rule{
			Attrs:      s.attrs,
			Values:     s.valuesOf(int(ref.g)),
			SA:         sa,
			Positive:   positive,
			Confidence: float64(sup) / float64(size),
			Support:    sup,
			CondCount:  size,
		}
		next[id]++
	})
	return rules
}

// forEachSubset calls fn with every size-k index subset of [0, n) in
// lexicographic order. The slice passed to fn is reused.
func forEachSubset(n, k int, fn func(idx []int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// TopK implements the paper's Top-(K+, K−) bound: the kPos strongest
// positive rules and the kNeg strongest negative rules by confidence.
// Rules must already be sorted (as Mine returns them). A negative count
// selects no rules of that polarity.
func TopK(rules []Rule, kPos, kNeg int) []Rule {
	kPos = min(max(kPos, 0), len(rules))
	kNeg = min(max(kNeg, 0), len(rules))
	out := make([]Rule, 0, min(kPos+kNeg, len(rules)))
	nPos, nNeg := 0, 0
	for i := range rules {
		if rules[i].Positive {
			if nPos < kPos {
				out = append(out, rules[i])
				nPos++
			}
		} else if nNeg < kNeg {
			out = append(out, rules[i])
			nNeg++
		}
		if nPos == kPos && nNeg == kNeg {
			break
		}
	}
	return out
}

// Split partitions rules by polarity, preserving order.
func Split(rules []Rule) (positive, negative []Rule) {
	for i := range rules {
		if rules[i].Positive {
			positive = append(positive, rules[i])
		} else {
			negative = append(negative, rules[i])
		}
	}
	return positive, negative
}

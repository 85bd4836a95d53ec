package assoc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/dataset"
)

// referenceMine is the mining algorithm Mine replaced, kept to hold the
// current one to it: records grouped under fmt-built string keys, each
// subset's rules appended to one growing slice, and sort.Slice over whole
// Rule values. opts must be valid; it mines sequentially.
func referenceMine(t *dataset.Table, opts Options) []Rule {
	qi := t.Schema().QIIndices()
	minSup := max(opts.MinSupport, 1)
	sizes := opts.Sizes
	if len(sizes) == 0 {
		for k := 1; k <= len(qi); k++ {
			sizes = append(sizes, k)
		}
	}
	var rules []Rule
	for _, k := range sizes {
		forEachSubset(len(qi), k, func(idx []int) {
			attrs := make([]int, len(idx))
			for i, p := range idx {
				attrs[i] = qi[p]
			}
			rules = append(rules, mineSubset(t, attrs, minSup)...)
		})
	}
	sortRules(rules)
	return rules
}

// mineSubset emits the rules of one QI attribute subset.
func mineSubset(t *dataset.Table, attrs []int, minSup int) []Rule {
	saCard := t.Schema().SA().Cardinality()
	type group struct {
		values []int
		count  int
		perSA  []int
	}
	groups := map[string]*group{}
	var keyBuf strings.Builder
	for row := 0; row < t.Len(); row++ {
		r := t.Row(row)
		keyBuf.Reset()
		for _, a := range attrs {
			fmt.Fprintf(&keyBuf, "%d|", r[a])
		}
		key := keyBuf.String()
		g := groups[key]
		if g == nil {
			values := make([]int, len(attrs))
			for i, a := range attrs {
				values[i] = r[a]
			}
			g = &group{values: values, perSA: make([]int, saCard)}
			groups[key] = g
		}
		g.count++
		g.perSA[t.SACode(row)]++
	}
	var rules []Rule
	for _, g := range groups {
		for s := 0; s < saCard; s++ {
			pos := g.perSA[s]
			neg := g.count - pos
			if pos >= minSup {
				rules = append(rules, Rule{
					Attrs: attrs, Values: g.values, SA: s,
					Positive:   true,
					Confidence: float64(pos) / float64(g.count),
					Support:    pos,
					CondCount:  g.count,
				})
			}
			if neg >= minSup {
				rules = append(rules, Rule{
					Attrs: attrs, Values: g.values, SA: s,
					Positive:   false,
					Confidence: float64(neg) / float64(g.count),
					Support:    neg,
					CondCount:  g.count,
				})
			}
		}
	}
	return rules
}

// sortRules orders by confidence (desc), then support (desc), then a
// deterministic structural key, so Top-K selections are reproducible.
func sortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := &rules[i], &rules[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Attrs) != len(b.Attrs) {
			return len(a.Attrs) < len(b.Attrs)
		}
		for k := range a.Attrs {
			if a.Attrs[k] != b.Attrs[k] {
				return a.Attrs[k] < b.Attrs[k]
			}
			if a.Values[k] != b.Values[k] {
				return a.Values[k] < b.Values[k]
			}
		}
		if a.SA != b.SA {
			return a.SA < b.SA
		}
		return a.Positive && !b.Positive
	})
}

// assertMatchesReference mines tbl at every worker count in workers and
// requires the rules, order included, to equal referenceMine's.
func assertMatchesReference(t *testing.T, tbl *dataset.Table, opts Options, workers ...int) {
	t.Helper()
	want := referenceMine(tbl, opts)
	if len(want) == 0 {
		t.Fatalf("%+v: the reference mined no rules", opts)
	}
	for _, w := range workers {
		opts.Workers = w
		got, err := Mine(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %d rules differ from the reference's %d", opts, len(got), len(want))
		}
	}
}

// TestMineMatchesReferenceAdult: on Adult tables of three sizes and
// seeds, Mine returns exactly the reference's rules in the reference's
// order at one and at four workers. Every table is mined at sizes {1, 2}
// with support thresholds 1 and 3 and at size 3 with threshold 3; the
// 300-record tables also at size 3 with threshold 1 and at every size
// with threshold 3. The larger combinations mine up to 2.8 M rules, which
// reflect.DeepEqual alone would take seconds to compare.
func TestMineMatchesReferenceAdult(t *testing.T) {
	for _, records := range []int{300, 1000, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			tbl := adult.Generate(adult.Config{Records: records, Seed: seed})
			t.Run(fmt.Sprintf("records=%d/seed=%d", records, seed), func(t *testing.T) {
				cases := []Options{
					{MinSupport: 1, Sizes: []int{1, 2}},
					{MinSupport: 3, Sizes: []int{1, 2}},
					{MinSupport: 3, Sizes: []int{3}},
				}
				if records == 300 {
					cases = append(cases, Options{MinSupport: 1, Sizes: []int{3}}, Options{MinSupport: 3})
				}
				for _, opts := range cases {
					assertMatchesReference(t, tbl, opts, 1, 4)
				}
			})
		}
	}
}

// TestMineMatchesReferencePaperExample covers the paper's 10-record table
// at every size and both thresholds. A threshold above the record count
// mines no rules, returned as nil as the reference returns them.
func TestMineMatchesReferencePaperExample(t *testing.T) {
	tbl := dataset.PaperExample()
	for _, minSup := range []int{1, 3} {
		assertMatchesReference(t, tbl, Options{MinSupport: minSup}, 1, 4)
	}
	none := Options{MinSupport: tbl.Len() + 1}
	got, err := Mine(tbl, none)
	if err != nil || got != nil || referenceMine(tbl, none) != nil {
		t.Fatalf("threshold above the record count: got %v (err %v), want nil as the reference", got, err)
	}
}

// TestMineMatchesReferenceWideDomains mines a CSV table whose six QI
// columns each hold about 2,000 distinct values, at every subset size.
// The product of the domain sizes passes 2^64, so a key packing the codes
// of a subset into one machine word would overflow here.
func TestMineMatchesReferenceWideDomains(t *testing.T) {
	const records = 2000
	moduli := []int{2000, 1999, 1997, 1993, 1987, 1979}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for j := range moduli {
		fmt.Fprintf(&b, "q%d,", j)
	}
	b.WriteString("s\n")
	for row := 0; row < records; row++ {
		for j, m := range moduli {
			// A different stride per column decorrelates the columns.
			fmt.Fprintf(&b, "v%d,", (row*(2*j+1)+j)%m)
		}
		fmt.Fprintf(&b, "s%d\n", rng.Intn(3))
	}
	tbl, err := dataset.ReadCSV(strings.NewReader(b.String()), map[string]dataset.Role{"s": dataset.Sensitive})
	if err != nil {
		t.Fatal(err)
	}
	for j := range moduli {
		if card := tbl.Schema().Attr(j).Cardinality(); card < 1000 {
			t.Fatalf("column q%d has %d distinct values, want at least 1,000", j, card)
		}
	}
	assertMatchesReference(t, tbl, Options{MinSupport: 1}, 1, 4)
}

package assoc

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/dataset"
)

func TestForEachSubset(t *testing.T) {
	var got [][]int
	forEachSubset(4, 2, func(idx []int) {
		got = append(got, append([]int(nil), idx...))
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subsets = %v, want %v", got, want)
	}
	// k == n yields exactly one subset.
	n := 0
	forEachSubset(3, 3, func([]int) { n++ })
	if n != 1 {
		t.Fatalf("full subset count = %d, want 1", n)
	}
}

func TestMinePaperExample(t *testing.T) {
	tbl := dataset.PaperExample()
	rules, err := Mine(tbl, Options{MinSupport: 1, Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	gender := tbl.Schema().Index("Gender")
	male := tbl.Schema().Attr(gender).MustCode("male")
	bc := tbl.Schema().SA().MustCode("Breast Cancer")
	flu := tbl.Schema().SA().MustCode("Flu")

	// The motivating negative rule: male ⇒ ¬Breast Cancer with
	// confidence 1 (no male has breast cancer in D).
	var foundNeg, foundPos bool
	for i := range rules {
		r := &rules[i]
		if len(r.Attrs) == 1 && r.Attrs[0] == gender && r.Values[0] == male && r.SA == bc && !r.Positive {
			foundNeg = true
			if r.Confidence != 1 {
				t.Fatalf("male => ¬BreastCancer confidence = %g, want 1", r.Confidence)
			}
			if r.Support != 6 || r.CondCount != 6 {
				t.Fatalf("male => ¬BreastCancer support = %d/%d, want 6/6", r.Support, r.CondCount)
			}
			if r.PSA() != 0 {
				t.Fatalf("PSA = %g, want 0", r.PSA())
			}
		}
		// P(Flu | male) = 3/6.
		if len(r.Attrs) == 1 && r.Attrs[0] == gender && r.Values[0] == male && r.SA == flu && r.Positive {
			foundPos = true
			if math.Abs(r.Confidence-0.5) > 1e-12 {
				t.Fatalf("P(Flu|male) = %g, want 0.5", r.Confidence)
			}
			if r.Support != 3 {
				t.Fatalf("Flu|male support = %d, want 3", r.Support)
			}
		}
	}
	if !foundNeg || !foundPos {
		t.Fatalf("expected rules not mined (neg=%v pos=%v)", foundNeg, foundPos)
	}
	// Rules are sorted by confidence descending.
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Fatalf("rules not sorted: conf[%d]=%g > conf[%d]=%g", i, rules[i].Confidence, i-1, rules[i-1].Confidence)
		}
	}
}

func TestMineSupportThreshold(t *testing.T) {
	tbl := dataset.PaperExample()
	rules, err := Mine(tbl, Options{MinSupport: 3, Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		if rules[i].Support < 3 {
			t.Fatalf("rule %v has support %d < 3", rules[i].String(), rules[i].Support)
		}
	}
}

func TestMineSizesAndValidation(t *testing.T) {
	tbl := dataset.PaperExample()
	// Size 2 = both QI attributes: conditions are full QI tuples.
	rules, err := Mine(tbl, Options{MinSupport: 1, Sizes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		if len(rules[i].Attrs) != 2 {
			t.Fatalf("rule conditions on %d attributes, want 2", len(rules[i].Attrs))
		}
	}
	if _, err := Mine(tbl, Options{Sizes: []int{0}}); err == nil {
		t.Fatal("expected size validation error")
	}
	if _, err := Mine(tbl, Options{Sizes: []int{3}}); err == nil {
		t.Fatal("expected size validation error (only 2 QI attrs)")
	}
	// Default sizes = 1..NumQI.
	all, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Mine(tbl, Options{MinSupport: 1, Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Mine(tbl, Options{MinSupport: 1, Sizes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(r1)+len(r2) {
		t.Fatalf("default sizes mined %d rules, want %d", len(all), len(r1)+len(r2))
	}
}

// TestMineRejectsInvalidSizes: a size out of range or listed twice is an
// ErrInvalidOptions. A repeated size used to mine each of its subsets
// twice, so TopK could return the same rule twice.
func TestMineRejectsInvalidSizes(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 300, Seed: 1})
	for _, sizes := range [][]int{{0}, {9}, {1, 1}, {1, 2, 1}} {
		if _, err := Mine(tbl, Options{Sizes: sizes}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("sizes %v: err = %v, want ErrInvalidOptions", sizes, err)
		}
	}
	rules, err := Mine(tbl, Options{Sizes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(rules, 3, 0)
	for i := 1; i < len(top); i++ {
		if reflect.DeepEqual(top[i], top[i-1]) {
			t.Fatalf("TopK returned %v twice", top[i].String())
		}
	}
}

func TestMineNoSATable(t *testing.T) {
	a := dataset.NewAttribute("x", dataset.QuasiIdentifier, []string{"1"})
	tbl := dataset.NewTable(dataset.MustSchema(a))
	if _, err := Mine(tbl, Options{}); err == nil {
		t.Fatal("expected error for table without SA")
	}
}

func TestTopK(t *testing.T) {
	tbl := dataset.PaperExample()
	rules, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	top := TopK(rules, 2, 3)
	pos, neg := Split(top)
	if len(pos) != 2 || len(neg) != 3 {
		t.Fatalf("TopK split = %d pos, %d neg; want 2, 3", len(pos), len(neg))
	}
	// Selected rules are the strongest of their polarity.
	allPos, allNeg := Split(rules)
	if pos[0].Confidence != allPos[0].Confidence || neg[0].Confidence != allNeg[0].Confidence {
		t.Fatal("TopK did not take the strongest rules")
	}
	// Asking for more than exist returns what's available.
	huge := TopK(rules, len(rules), len(rules))
	if len(huge) != len(rules) {
		t.Fatalf("TopK overflow = %d rules, want %d", len(huge), len(rules))
	}
}

// TestTopKOutOfRangeCounts: a negative count selects nothing of its
// polarity and a count past the pool (up to math.MaxInt, where the sum
// overflows) selects the whole pool; neither panics.
func TestTopKOutOfRangeCounts(t *testing.T) {
	rules, err := Mine(dataset.PaperExample(), Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := TopK(rules, 5, -10), TopK(rules, 5, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(5, -10) = %d rules, want TopK(5, 0)'s %d", len(got), len(want))
	}
	if got := TopK(rules, -1, -1); len(got) != 0 {
		t.Fatalf("TopK(-1, -1) = %d rules, want 0", len(got))
	}
	if got := TopK(rules, math.MaxInt, math.MaxInt); len(got) != len(rules) {
		t.Fatalf("TopK(MaxInt, MaxInt) = %d rules, want all %d", len(got), len(rules))
	}
}

func TestRuleKnowledgeConversion(t *testing.T) {
	tbl := dataset.PaperExample()
	gender := tbl.Schema().Index("Gender")
	r := Rule{
		Attrs:      []int{gender},
		Values:     []int{tbl.Schema().Attr(gender).MustCode("male")},
		SA:         tbl.Schema().SA().MustCode("Breast Cancer"),
		Positive:   false,
		Confidence: 1,
	}
	k := r.Knowledge()
	if k.P != 0 {
		t.Fatalf("negative rule knowledge P = %g, want 0", k.P)
	}
	r.Positive = true
	r.Confidence = 0.75
	if got := r.Knowledge().P; got != 0.75 {
		t.Fatalf("positive rule knowledge P = %g, want 0.75", got)
	}
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestMineDeterministic(t *testing.T) {
	tbl := dataset.PaperExample()
	a, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Mine is not deterministic")
	}
}

// TestMineParallelMatchesSequential: worker count must not change the
// mined rule list (ordering is fully deterministic after sorting).
func TestMineParallelMatchesSequential(t *testing.T) {
	tbl := dataset.PaperExample()
	seq, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Mine(tbl, Options{MinSupport: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel mining differs from sequential")
	}
}

// TestMineParallelWorkerSweep: the pool-backed parallel path returns a
// rule list deeply equal to the sequential one — same rules, same order
// — on a larger workload, at worker counts below, at, and far above the
// subset count.
func TestMineParallelWorkerSweep(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 7})
	seq, err := Mine(tbl, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("workload mined no rules")
	}
	for _, w := range []int{2, 3, 8, 64} {
		par, err := Mine(tbl, Options{MinSupport: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel mining differs from sequential", w)
		}
	}
}

// TestTopKQuick: for any (kPos, kNeg), TopK returns at most that many
// rules of each polarity, strongest-first, and every returned rule exists
// in the pool.
func TestTopKQuick(t *testing.T) {
	tbl := dataset.PaperExample()
	pool, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(kp, kn uint8) bool {
		kPos, kNeg := int(kp)%40, int(kn)%40
		top := TopK(pool, kPos, kNeg)
		pos, neg := Split(top)
		if len(pos) > kPos || len(neg) > kNeg {
			return false
		}
		for i := 1; i < len(pos); i++ {
			if pos[i].Confidence > pos[i-1].Confidence {
				return false
			}
		}
		for i := 1; i < len(neg); i++ {
			if neg[i].Confidence > neg[i-1].Confidence {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRuleConfidenceConsistency: every mined rule's confidence equals
// support divided by body count, and PSA stays within [0, 1].
func TestRuleConfidenceConsistency(t *testing.T) {
	tbl := dataset.PaperExample()
	rules, err := Mine(tbl, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		r := &rules[i]
		want := float64(r.Support) / float64(r.CondCount)
		if math.Abs(r.Confidence-want) > 1e-12 {
			t.Fatalf("rule %v: confidence %g, want %g", r, r.Confidence, want)
		}
		if p := r.PSA(); p < 0 || p > 1 {
			t.Fatalf("rule %v: PSA %g", r, p)
		}
	}
}

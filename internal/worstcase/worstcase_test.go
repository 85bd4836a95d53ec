package worstcase

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

func paperData(t *testing.T) *bucket.Bucketized {
	t.Helper()
	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDisclosureNoKnowledge(t *testing.T) {
	d := paperData(t)
	// Bucket 1 has SA multiset {s1, s2, s2, s3}: the best guess without
	// knowledge is s2 at 2/4 = 0.5, which also dominates buckets 2 and 3
	// (1/3 each).
	got, err := DisclosureContext(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Disclosure(0) = %g, want 0.5", got)
	}
}

func TestDisclosureGrowsToOne(t *testing.T) {
	d := paperData(t)
	prev := 0.0
	for k := 0; k <= 4; k++ {
		got, err := DisclosureContext(context.Background(), d, k)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev {
			t.Fatalf("disclosure decreased at k=%d: %g < %g", k, got, prev)
		}
		prev = got
	}
	// Two eliminations break bucket 1's duplicated s2: 2/(4-2) = 1.
	got, err := DisclosureContext(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("Disclosure(2) = %g, want 1", got)
	}
}

func TestBreakPoint(t *testing.T) {
	d := paperData(t)
	// Bucket 1: size 4, s2 count 2 -> 2 statements. Buckets 2 and 3: size
	// 3, counts 1 -> 2 statements. Minimum is 2.
	if got := BreakPoint(d); got != 2 {
		t.Fatalf("BreakPoint = %d, want 2", got)
	}
	if p, err := DisclosureContext(context.Background(), d, BreakPoint(d)); err != nil || p != 1 {
		t.Fatalf("Disclosure(BreakPoint) = %g, %v; want 1", p, err)
	}
	if p, err := DisclosureContext(context.Background(), d, BreakPoint(d)-1); err != nil || p >= 1 {
		t.Fatalf("Disclosure(BreakPoint-1) = %g, %v; want < 1", p, err)
	}
}

func TestCurve(t *testing.T) {
	d := paperData(t)
	curve, err := Curve(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length = %d, want 4", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("curve not monotone at %d: %v", i, curve)
		}
	}
	if curve[3] != 1 {
		t.Fatalf("curve[3] = %g, want saturated at 1", curve[3])
	}
}

func TestValidation(t *testing.T) {
	d := paperData(t)
	if _, err := DisclosureContext(context.Background(), d, -1); err == nil {
		t.Fatal("expected negative-budget error")
	}
	if _, err := Curve(d, -1); err == nil {
		t.Fatal("expected negative-kMax error")
	}
}

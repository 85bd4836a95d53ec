// Package worstcase implements the deterministic-knowledge baseline the
// paper positions itself against (Sec. 2): Martin et al.'s worst-case
// background knowledge [19], in its bucketization form, restricted to
// negative atoms — statements "person p does not have sensitive value s".
// Chen et al.'s privacy skyline [7] generalizes the same idea with a
// (ℓ, k, m) budget; the k axis here corresponds to their second
// coordinate.
//
// Under random-worlds semantics a bucket of N_b records containing value
// s exactly n_s times gives every member probability n_s/N_b of holding
// s. An adversary who spends k statements eliminating *other* members
// from candidacy for s raises the target's posterior to n_s/(N_b − k),
// reaching certainty at k = N_b − n_s. The worst-case disclosure of a
// publication under budget k is the maximum of that quantity over
// buckets and values — a closed form, in contrast to Privacy-MaxEnt's
// probabilistic, optimization-based treatment. Comparing the two shows
// what the paper argues: deterministic worst-case bounds saturate quickly
// and cannot express probabilistic or aggregate knowledge.
package worstcase

import (
	"context"
	"fmt"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/telemetry"
)

// DisclosureContext returns the worst-case posterior
// max_{b,s} n_s/(N_b − k) (clipped to 1) an adversary with k negative
// statements about a single target's bucket can reach. k must be
// non-negative. Cancellation is checked between buckets, and a
// "worstcase.disclosure" telemetry span records the call.
func DisclosureContext(ctx context.Context, d *bucket.Bucketized, k int) (float64, error) {
	_, span := telemetry.Start(ctx, "worstcase.disclosure",
		telemetry.Int("buckets", d.NumBuckets()),
		telemetry.Int("k", k))
	defer span.End()
	if k < 0 {
		return 0, fmt.Errorf("worstcase: negative knowledge budget %d", k)
	}
	var worst float64
	for b := 0; b < d.NumBuckets(); b++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		bk := d.Bucket(b)
		nb := bk.Size()
		for _, s := range bk.DistinctSAs() {
			ns := bk.SACount(s)
			// Eliminations beyond the non-s members are wasted; the
			// posterior caps at 1.
			denom := nb - k
			var p float64
			if denom <= ns {
				p = 1
			} else {
				p = float64(ns) / float64(denom)
			}
			if p > worst {
				worst = p
			}
		}
	}
	return worst, nil
}

// Curve evaluates DisclosureContext for k = 0..kMax, the baseline's
// analogue of an accuracy-vs-knowledge sweep.
func Curve(d *bucket.Bucketized, kMax int) ([]float64, error) {
	if kMax < 0 {
		return nil, fmt.Errorf("worstcase: negative kMax %d", kMax)
	}
	out := make([]float64, kMax+1)
	for k := 0; k <= kMax; k++ {
		p, err := DisclosureContext(context.Background(), d, k)
		if err != nil {
			return nil, err
		}
		out[k] = p
	}
	return out, nil
}

// BreakPoint returns the smallest budget k at which some individual's
// sensitive value is fully disclosed in the worst case — the number of
// negative statements needed to break the publication. For a bucket of
// N_b records whose rarest present value occurs n_s times, that is
// min over buckets and values of N_b − n_s.
func BreakPoint(d *bucket.Bucketized) int {
	best := -1
	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		for _, s := range bk.DistinctSAs() {
			k := bk.Size() - bk.SACount(s)
			if best < 0 || k < best {
				best = k
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

package privacymaxent

import (
	"privacymaxent/internal/errs"
	"privacymaxent/internal/solver"
)

// Error taxonomy. Every failure a pipeline entry point returns wraps (or
// matches) one of these sentinels, so callers classify errors with the
// standard errors.Is instead of string matching or reaching into
// internal packages:
//
//	rep, err := p.QuantifyWithOptions(ctx, privacymaxent.QuantifyOptions{Knowledge: knowledge})
//	switch {
//	case errors.Is(err, privacymaxent.ErrInfeasible):
//		// the knowledge contradicts the published data (HTTP 422)
//	case errors.Is(err, privacymaxent.ErrInterrupted):
//		// ctx was cancelled or its deadline expired mid-solve (HTTP 499)
//	case errors.Is(err, privacymaxent.ErrInvalidSchema),
//		errors.Is(err, privacymaxent.ErrNoSensitiveAttribute):
//		// malformed input (HTTP 400)
//	}
//
// The pmaxentd server (internal/server) maps exactly these categories to
// its HTTP statuses.
var (
	// ErrInfeasible reports that the constraint system admits no
	// probability distribution: the supplied background knowledge
	// contradicts the published data's invariants (or itself). Returned
	// by every solve entry point (Prepared.QuantifyWithOptions,
	// QuantifyDelta, QuantifyWithRules, RunContext, ...).
	ErrInfeasible = errs.ErrInfeasible

	// ErrInterrupted reports that a solve was stopped before reaching
	// its tolerance because the context passed to its entry point was
	// cancelled or timed out.
	ErrInterrupted = solver.ErrInterrupted

	// ErrInvalidSchema reports structurally invalid schema input (nil or
	// duplicate attributes, more than one sensitive attribute).
	ErrInvalidSchema = errs.ErrInvalidSchema

	// ErrNoSensitiveAttribute reports an operation that needs a
	// sensitive attribute running over data without one (mining,
	// ground-truth scoring, preparation of a published view).
	ErrNoSensitiveAttribute = errs.ErrNoSensitiveAttribute
)

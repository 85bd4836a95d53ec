package server

// This file defines the wire schema of the pmaxentd v1 API. Requests and
// responses are plain JSON; the published view and knowledge statements
// reuse the exact formats the offline tools read and write
// (bucket.WriteJSON / constraint.WriteKnowledgeJSON), so a release
// produced by `pmaxent -publish` is a valid request payload as-is.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/scheme"
)

// QuantifyRequest is the body of POST /v1/quantify.
type QuantifyRequest struct {
	// Published is the published view D′ in the WritePublishedJSON wire
	// format ({"qi": [...], "sa": {...}, "buckets": [...]}).
	Published json.RawMessage `json:"published"`
	// Knowledge lists background-knowledge statements in the
	// ParseKnowledgeJSON format ([{"if": {...}, "then": "...", "p": p}]),
	// resolved against the published schema. Optional.
	Knowledge json.RawMessage `json:"knowledge,omitempty"`
	// Scheme declares the publication scheme the view was produced
	// under; GET /healthz lists the supported names and parameter
	// schemas. Absent means anatomy (the classic default) and leaves the
	// response byte-identical to the pre-scheme API. Boxed schemes
	// (randomized_response) solve through the inequality dual and reject
	// ?audit=1, eps > 0 and delta reuse.
	Scheme *SchemeSpec `json:"scheme,omitempty"`
	// Eps > 0 runs the Sec. 4.5 vague-knowledge variant: every statement
	// becomes a ±eps box instead of an equality. Vague solves bypass the
	// prepared-system cache (inequalities do not overlay the equality
	// base) and are never audited.
	Eps float64 `json:"eps,omitempty"`
	// Delta opts this request into incremental solving: the server diffs
	// the assembled system against the last converged solve chained on
	// this publication's cache entry and re-solves only the changed
	// decomposition components. Requires the server's delta chain
	// (pmaxentd -delta) and is ignored for vague (eps>0) and audited
	// solves. Posterior and scores are unchanged; only solver counters
	// (reused/dirty components, iterations) reflect the reuse.
	Delta bool `json:"delta,omitempty"`
	// TimeoutMS caps how long this request waits for its result,
	// queueing included. Zero or values above the server's solve budget
	// fall back to the server default. The solve itself is detached:
	// a request giving up does not cancel a solve other callers share.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PosteriorRow is one QI tuple's estimated sensitive-value distribution.
type PosteriorRow struct {
	// QI maps attribute name to value for this tuple.
	QI map[string]string `json:"qi"`
	// P maps sensitive value to the adversary's posterior P*(s|q).
	P map[string]float64 `json:"p"`
}

// SolverStats is the wire form of the solve counters.
type SolverStats struct {
	Algorithm    string  `json:"algorithm"`
	Iterations   int     `json:"iterations"`
	Evaluations  int     `json:"evaluations"`
	Converged    bool    `json:"converged"`
	MaxViolation float64 `json:"max_violation"`
	Components   int     `json:"components,omitempty"`
	// ReducedDualDim is the presolved row count the optimizer ran on
	// (maxent.Stats.ReducedDualDim).
	ReducedDualDim int `json:"reduced_dual_dim,omitempty"`
	// ReusedComponents / DirtyComponents report a delta solve's split:
	// components copied verbatim from the chained baseline versus
	// components re-solved. Both zero for cold solves.
	ReusedComponents int `json:"reused_components,omitempty"`
	DirtyComponents  int `json:"dirty_components,omitempty"`
}

// QuantifyResponse is the body of a successful POST /v1/quantify. Every
// field except Timings and ElapsedMS is a deterministic function of the
// request (and therefore byte-identical across servers, restarts and the
// offline CLI); the two timing fields are wall-clock measurements.
type QuantifyResponse struct {
	// Digest identifies the published view (the prepared-cache key).
	Digest string `json:"digest"`
	// Cache is "hit" when the invariant system was already prepared for
	// this D′ and "miss" when this request built it. On a miss the
	// Timings carry a "prepare" stage; on a hit that stage is absent.
	Cache string `json:"cache"`
	// Scheme echoes the request's publication-scheme declaration in
	// canonical form (defaults applied); absent when the request carried
	// none.
	Scheme *SchemeSpec `json:"scheme,omitempty"`
	// KnowledgeApplied counts the ME knowledge constraints applied.
	KnowledgeApplied int     `json:"knowledge_applied"`
	Eps              float64 `json:"eps,omitempty"`
	// MaxDisclosure and PosteriorEntropyBits are the privacy scores.
	MaxDisclosure        float64 `json:"max_disclosure"`
	PosteriorEntropyBits float64 `json:"posterior_entropy_bits"`
	// Posterior is the full P*(S|Q), one row per QI tuple in universe
	// order.
	Posterior []PosteriorRow `json:"posterior"`
	Solver    SolverStats    `json:"solver"`
	// Audit is the solve's numerical-health record, present when the
	// request asked for it with ?audit=1 (equality solves only).
	Audit *audit.SolveAudit `json:"audit,omitempty"`
	// TimingsMS is the per-stage wall-clock breakdown in milliseconds;
	// ElapsedMS the whole request. Wall-clock, not comparable across
	// runs.
	TimingsMS map[string]float64 `json:"timings_ms,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: "invalid_request", "infeasible",
	// "interrupted", "deadline", "overloaded", "draining", "not_found"
	// or "internal".
	Kind string `json:"kind"`
	// Supported lists the valid scheme names when the failure was an
	// unknown or malformed publication-scheme declaration.
	Supported []string `json:"supported,omitempty"`
}

// SolveStatus is one row of GET /debug/solves: the live progress of a
// single-flight solve. Counter fields (iterations, grad_norm,
// components_done) are read from the solve's hot-path atomics, so a
// snapshot taken mid-solve shows genuinely current numbers.
type SolveStatus struct {
	// ID names the solve (digest prefix + daemon-lifetime sequence); it
	// is the {id} of GET /v1/solves/{id}/events.
	ID string `json:"id"`
	// RequestID is the leader request's ID — the join key against access
	// logs, spans and audit records.
	RequestID string `json:"request_id"`
	// State is "queued", "running", "done" or "failed". Recovered marks
	// entries reconstructed from the history journal after a restart: the
	// solve finished under a previous process, so its counters are the
	// journaled summary and its elapsed time is frozen.
	State     string `json:"state"`
	Recovered bool   `json:"recovered,omitempty"`
	// Digest, Scheme, Knowledge, Eps, Audit describe the request being
	// solved; Scheme is empty for the classic anatomy default.
	Digest    string  `json:"digest"`
	Scheme    string  `json:"scheme,omitempty"`
	Knowledge int     `json:"knowledge"`
	Eps       float64 `json:"eps,omitempty"`
	Audit     bool    `json:"audit,omitempty"`
	// Variables is the solve's variable count (0 until solve.start).
	Variables int64 `json:"variables"`
	// Iterations counts optimizer iterations across all components;
	// GradNorm and Objective are the most recent iteration's values.
	Iterations int64   `json:"iterations"`
	GradNorm   float64 `json:"grad_norm"`
	Objective  float64 `json:"objective"`
	// ComponentsDone / ComponentsTotal track decomposition progress
	// (both 0 for non-decomposed solves until events arrive).
	ComponentsDone  int64 `json:"components_done"`
	ComponentsTotal int64 `json:"components_total"`
	// ReducedDualDim is the presolved row count the optimizer ran on; it
	// arrives with solve.done.
	ReducedDualDim int64 `json:"reduced_dual_dim,omitempty"`
	// ReusedComponents / DirtyComponents arrive with a delta solve's
	// solve.done event; both 0 for cold solves.
	ReusedComponents int64 `json:"reused_components,omitempty"`
	DirtyComponents  int64 `json:"dirty_components,omitempty"`
	// QueueWaitMS is time spent waiting for an admission slot; ElapsedMS
	// the solve's total wall-clock so far (or at completion).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// DebugSolvesResponse is the body of GET /debug/solves: live solves
// first (oldest first), then the retained ring of finished ones.
type DebugSolvesResponse struct {
	Solves []SolveStatus `json:"solves"`
}

// HealthzResponse is the body of GET /healthz: liveness plus build
// provenance, so one curl identifies exactly which binary is serving.
type HealthzResponse struct {
	Status    string `json:"status"`
	Version   string `json:"version"`
	Commit    string `json:"commit,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Schemes lists the supported publication schemes with their
	// parameter schemas — the capability-discovery surface a client
	// checks before declaring a scheme on /v1/quantify.
	Schemes []scheme.Descriptor `json:"schemes"`
}

// BatchVariant is one knowledge variant of a batch quantification.
type BatchVariant struct {
	// Knowledge is this variant's statement list in the same format as
	// QuantifyRequest.Knowledge; empty solves the bare invariant system.
	Knowledge json.RawMessage `json:"knowledge,omitempty"`
}

// BatchQuantifyRequest is the body of POST /v1/quantify/batch: one
// published view, many knowledge variants. The invariant system is
// prepared once and shared; each variant runs through the same
// single-flight machinery as an individual POST /v1/quantify, so a
// variant's response bytes are exactly what the individual call would
// have returned (and concurrent individual calls coalesce with it).
type BatchQuantifyRequest struct {
	// Published is the published view D′, as in QuantifyRequest.
	Published json.RawMessage `json:"published"`
	// Scheme declares the publication scheme of the shared view, as in
	// QuantifyRequest.Scheme; it applies to every variant.
	Scheme *SchemeSpec `json:"scheme,omitempty"`
	// Variants lists the knowledge sets to quantify, all against the
	// same publication.
	Variants []BatchVariant `json:"variants"`
	// Delta opts the batch into incremental solving: variants chain
	// delta state through the publication's cache entry, so each variant
	// diffs against the nearest previously converged variant and
	// re-solves only changed components. Requires the server's delta
	// chain (pmaxentd -delta).
	Delta bool `json:"delta,omitempty"`
	// TimeoutMS bounds the whole batch, as QuantifyRequest.TimeoutMS
	// bounds one request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchVariantResult is one variant's outcome inside a batch response.
type BatchVariantResult struct {
	// Index is the variant's position in the request.
	Index int `json:"index"`
	// SolveID names the solve that served this variant (possibly another
	// caller's, when the variant coalesced).
	SolveID string `json:"solve_id,omitempty"`
	// Response carries the exact QuantifyResponse bytes an individual
	// POST /v1/quantify with this variant's knowledge would have
	// returned. Nil when the variant failed.
	Response json.RawMessage `json:"response,omitempty"`
	// Error carries the variant's failure when Response is nil.
	Error *ErrorResponse `json:"error,omitempty"`
}

// BatchQuantifyResponse is the body of a successful POST
// /v1/quantify/batch. Variants appear in request order regardless of
// completion order.
type BatchQuantifyResponse struct {
	Digest string `json:"digest"`
	// Scheme echoes the batch's publication-scheme declaration in
	// canonical form; absent when the request carried none.
	Scheme    *SchemeSpec          `json:"scheme,omitempty"`
	Variants  []BatchVariantResult `json:"variants"`
	ElapsedMS float64              `json:"elapsed_ms"`
}

// MineRequest is the body of POST /v1/rules/mine: mine association rules
// from original microdata supplied as inline CSV (first row the header),
// the server-side counterpart of `pmaxent -input`.
type MineRequest struct {
	// CSV is the original table; SA names its sensitive column and ID
	// any identifier columns to strip.
	CSV string   `json:"csv"`
	SA  string   `json:"sa"`
	ID  []string `json:"id,omitempty"`
	// MinSupport and Sizes configure mining. MinSupport defaults to the
	// pipeline's threshold (3, the paper's) when omitted or not positive;
	// Sizes defaults to every size, and a size out of range or listed
	// twice is a 400.
	MinSupport int   `json:"min_support,omitempty"`
	Sizes      []int `json:"sizes,omitempty"`
	// KPos/KNeg select the Top-(K+, K−) strongest rules; both zero
	// returns every mined rule, and a negative count is a 400.
	KPos int `json:"k_pos,omitempty"`
	KNeg int `json:"k_neg,omitempty"`
	// TimeoutMS as in QuantifyRequest.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MineRule is one association rule on the wire.
type MineRule struct {
	If         map[string]string `json:"if"`
	Then       string            `json:"then"`
	Positive   bool              `json:"positive"`
	Confidence float64           `json:"confidence"`
	// P is P(SA|Qv) — the value a knowledge statement would pin.
	P       float64 `json:"p"`
	Support int     `json:"support"`
}

// MineResponse is the body of a successful POST /v1/rules/mine.
type MineResponse struct {
	Mined     int        `json:"mined"`
	Returned  int        `json:"returned"`
	Rules     []MineRule `json:"rules"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// buildPosterior renders P(S|Q) in wire form, rows in universe order.
func buildPosterior(post *dataset.Conditional, schema *dataset.Schema) []PosteriorRow {
	u := post.Universe()
	qiPos := schema.QIIndices()
	sa := schema.SA()
	rows := make([]PosteriorRow, u.Len())
	for qid := 0; qid < u.Len(); qid++ {
		codes := u.Codes(qid)
		qi := make(map[string]string, len(qiPos))
		for i, pos := range qiPos {
			qi[schema.Attr(pos).Name] = schema.Attr(pos).Value(codes[i])
		}
		p := make(map[string]float64, post.NumSA())
		for s := 0; s < post.NumSA(); s++ {
			p[sa.Value(s)] = post.P(qid, s)
		}
		rows[qid] = PosteriorRow{QI: qi, P: p}
	}
	return rows
}

// buildResponse converts a pipeline report into the wire response. The
// parity tests compare the server's bytes with this struct's encoding,
// so "what the server says" and "what the library computes" cannot
// drift apart.
func buildResponse(digest, cacheState string, eps float64, schema *dataset.Schema, rep *core.Report, alg maxent.Algorithm) *QuantifyResponse {
	resp := responseFields(digest, cacheState, eps, rep, alg)
	resp.Posterior = buildPosterior(rep.Posterior, schema)
	return resp
}

// responseFields is buildResponse without the posterior, which the
// server's encodeResponse writes from the report directly.
func responseFields(digest, cacheState string, eps float64, rep *core.Report, alg maxent.Algorithm) *QuantifyResponse {
	st := rep.Solution.Stats
	resp := &QuantifyResponse{
		Digest:               digest,
		Cache:                cacheState,
		KnowledgeApplied:     len(rep.Knowledge),
		Eps:                  eps,
		MaxDisclosure:        rep.MaxDisclosure,
		PosteriorEntropyBits: rep.PosteriorEntropy,
		Solver: SolverStats{
			Algorithm:        alg.String(),
			Iterations:       st.Iterations,
			Evaluations:      st.Evaluations,
			Converged:        st.Converged,
			MaxViolation:     st.MaxViolation,
			Components:       st.Components,
			ReducedDualDim:   st.ReducedDualDim,
			ReusedComponents: st.ReusedComponents,
			DirtyComponents:  st.DirtyComponents,
		},
		Audit: rep.Audit,
	}
	if len(rep.Timings) > 0 {
		resp.TimingsMS = make(map[string]float64, len(rep.Timings))
		for _, st := range rep.Timings {
			resp.TimingsMS[st.Stage] = float64(st.Duration.Nanoseconds()) / 1e6
		}
	}
	return resp
}

// requestKey is the single-flight key: the published digest plus a hash
// of everything else that shapes the response bytes. Two requests
// coalesce exactly when their responses would be identical. TimeoutMS is
// deliberately excluded — it bounds the wait, not the work. The delta
// flag is included: a delta solve reports different solver counters
// (reused/dirty components) than a cold solve of the same knowledge.
// schemeKey is the canonical scheme-declaration bytes (nil for the
// absent default): an explicit anatomy declaration shares the default's
// digest and cache entry but echoes a scheme field in its response, so
// the two must not coalesce.
func requestKey(digest string, knowledge json.RawMessage, eps float64, wantAudit, delta bool, schemeKey []byte) string {
	h := sha256.New()
	h.Write([]byte(digest))
	h.Write(knowledge)
	_ = json.NewEncoder(h).Encode([]any{eps, wantAudit, delta})
	h.Write(schemeKey)
	return hex.EncodeToString(h.Sum(nil))
}

// Package history is pmaxentd's durable solve memory: an append-only,
// segment-rotated, CRC-framed JSONL journal of finished solves, plus a
// rolling-aggregate layer that turns the journal into per-publication
// latency/iteration/feasibility distributions and a regression detector
// that compares a recent window against a baseline window and surfaces
// drift.
//
// Everything else the daemon emits — the live solve registry, the done
// ring, the pmaxentd_* series — dies with the process. The journal is
// the one signal that survives a restart, which is exactly what the
// operational question "has this publication's solve gotten slower or
// less converged over the last thousand requests?" needs: solve history
// across process lifetimes and rule-set revisions, keyed by the same
// publication digest the prepared-system cache uses.
//
// The package is deliberately dependency-light (stdlib + telemetry), so
// offline readers — pmaxentstat -history — can consume a journal without
// linking the solver.
package history

// Record is one journaled solve: the durable form of a live-solve
// registry entry at the moment it finished. Fields mirror the serving
// surfaces they join against — SolveID and RequestID are the join keys
// into access logs, SSE streams and audit provenance; Digest is the
// prepared-cache key the aggregates are grouped by.
//
// The schema is versioned: readers must tolerate unknown fields (records
// written by a newer daemon) and treat Schema values above RecordSchema
// as opaque-but-countable. See DESIGN.md §11 for the full field-by-field
// contract.
type Record struct {
	// Schema is the record-format version, currently RecordSchema.
	Schema int `json:"schema"`
	// SolveID is the live-solve registry ID (digest prefix + daemon
	// sequence); RequestID the leader request's identity.
	SolveID   string `json:"solve_id"`
	RequestID string `json:"request_id,omitempty"`
	// Digest identifies the published view (the cache and aggregation
	// key).
	Digest string `json:"digest"`
	// Outcome is "ok" or "error"; ErrorKind carries the server's error
	// taxonomy kind ("infeasible", "deadline", …) when Outcome is
	// "error".
	Outcome   string `json:"outcome"`
	ErrorKind string `json:"error_kind,omitempty"`
	// StartUnixNS is when the solve was registered (wall clock).
	StartUnixNS int64 `json:"start_unix_ns"`
	// Knowledge, Eps and Audit describe the request that was solved.
	Knowledge int     `json:"knowledge"`
	Eps       float64 `json:"eps,omitempty"`
	Audited   bool    `json:"audited,omitempty"`
	// Cache is the prepared-cache disposition ("hit", "miss", "bypass").
	Cache string `json:"cache,omitempty"`
	// Scheme names the publication scheme the request declared
	// ("anatomy", "mondrian", "randomized_response"); empty for requests
	// without a scheme field (the classic anatomy default). Parameter
	// values are bound into Digest, so two parameterizations of one
	// scheme never aggregate together.
	Scheme string `json:"scheme,omitempty"`
	// QueueWaitMS is admission-queue time; ElapsedMS the whole solve
	// wall clock; StagesMS the pipeline's per-stage breakdown
	// (prepare/formulate/solve/score/audit — stages present depend on
	// the path taken, exactly as in the response's timings_ms).
	QueueWaitMS float64            `json:"queue_wait_ms,omitempty"`
	ElapsedMS   float64            `json:"elapsed_ms"`
	StagesMS    map[string]float64 `json:"stages_ms,omitempty"`
	// Solver summarizes the solve counters; nil for solves that failed
	// before reaching the optimizer.
	Solver *SolverSummary `json:"solver,omitempty"`
	// AuditSummary condenses the solve audit when the request asked for
	// one (?audit=1) — enough to trend numerical health without storing
	// the full per-row residual attribution.
	AuditSummary *AuditSummary `json:"audit_summary,omitempty"`
}

// RecordSchema is the version stamped on records this package writes.
const RecordSchema = 1

// SolverSummary is the durable subset of the solve statistics.
type SolverSummary struct {
	Algorithm    string  `json:"algorithm,omitempty"`
	Iterations   int     `json:"iterations"`
	Evaluations  int     `json:"evaluations"`
	Converged    bool    `json:"converged"`
	MaxViolation float64 `json:"max_violation"`
	Components   int     `json:"components,omitempty"`
	Variables    int     `json:"variables,omitempty"`
	// ReducedDualDim is the presolved row count the optimizer ran on
	// (maxent.Stats.ReducedDualDim).
	ReducedDualDim int `json:"reduced_dual_dim,omitempty"`
	// ReusedComponents / DirtyComponents record a delta solve's split —
	// components carried over verbatim from the chained baseline versus
	// re-solved. Both zero for cold solves.
	ReusedComponents int `json:"reused_components,omitempty"`
	DirtyComponents  int `json:"dirty_components,omitempty"`
}

// AuditSummary is the durable condensation of a SolveAudit.
type AuditSummary struct {
	MaxViolation float64 `json:"max_violation"`
	DualityGap   float64 `json:"duality_gap"`
	EntropyBits  float64 `json:"entropy_bits"`
	Feasible     bool    `json:"feasible"`
}

// Failed reports whether the record describes a failed solve.
func (r *Record) Failed() bool { return r.Outcome != "ok" }

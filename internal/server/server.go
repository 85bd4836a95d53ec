// Package server implements pmaxentd, the Privacy-MaxEnt quantification
// service: an HTTP/JSON v1 API over the core pipeline that turns the
// offline batch tool into something a release process can call per
// candidate publication.
//
// The server's job beyond plumbing is to make repeated quantification of
// the same published view cheap and overload survivable:
//
//   - An LRU cache of prepared invariant systems keyed by a digest of the
//     published table D′. Background-knowledge rows are appended onto a
//     copy-on-append overlay (constraint.System.Clone) per request, so the
//     Theorem 1–3 invariant build is paid once per publication, not once
//     per request. Warm-start duals from converged solves on the same D′
//     seed later solves.
//   - Single-flight coalescing: identical in-flight requests share one
//     solve. The solve runs detached from any single request's context —
//     a caller giving up does not cancel the work for the rest.
//   - Admission control: a bounded concurrency limit plus a bounded
//     queue; beyond that, requests are shed immediately with 429 and a
//     Retry-After hint. Per-request deadlines flow into the pipeline as
//     context cancellation.
//   - Graceful drain: Drain stops admitting work, lets in-flight solves
//     finish, and only force-cancels them when its own deadline expires,
//     so SIGTERM never leaks ErrInterrupted into successful responses.
//
// Every request carries an identity: an X-Request-Id (accepted from the
// client, derived from a W3C traceparent, or generated) that is echoed
// in the response, threaded through spans, solve-event logs and audit
// provenance, and stamped on the one structured access-log line the
// server emits per request. In-flight solves are introspectable live:
// GET /debug/solves snapshots the solve table (iteration counts, current
// ∞-grad, component progress), GET /v1/solves/{id}/events streams one
// solve's lifecycle and sampled iteration events over SSE, and
// POST /v1/quantify?stream=1 enters that stream directly, terminated by
// a frame carrying the final response bytes.
//
// With Config.History set, every finished solve is also journaled
// durably (internal/history): GET /v1/history lists records across
// restarts, GET /v1/history/{digest} adds per-publication windowed
// aggregates, and GET /debug/regressions reports convergence/latency
// drifts the rolling detector has flagged. On startup the newest
// journaled records are adopted into the finished-solve ring, so
// /debug/solves and the SSE replay keep answering for pre-restart solve
// IDs (marked recovered, with frozen counters).
//
// Endpoints: POST /v1/quantify (+?stream=1), POST /v1/rules/mine,
// GET /v1/solves/{id}/events, GET /v1/history[/{digest}],
// GET /debug/solves, GET /debug/regressions, GET /metrics,
// GET /healthz, GET /readyz. Error bodies are ErrorResponse; the Kind
// field mirrors the facade error taxonomy (see the privacymaxent
// package's error docs).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/buildinfo"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/errs"
	"privacymaxent/internal/history"
	"privacymaxent/internal/scheme"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
)

// errBadRequest marks client-side request errors (malformed JSON, bad
// published view, unparseable knowledge) for the 400 mapping.
var errBadRequest = errors.New("server: bad request")

// errDraining reports that the server has stopped admitting work.
var errDraining = errors.New("server: draining")

// errNotFound marks lookups of unknown resources (an unknown solve ID)
// for the 404 mapping.
var errNotFound = errors.New("server: not found")

// maxBodyBytes bounds request bodies; published views are compact
// (values are interned strings), so this is generous.
const maxBodyBytes = 64 << 20

// Config tunes the server. The zero value serves with sensible defaults;
// Pipeline configures the underlying quantifier exactly as in the
// library and CLI.
type Config struct {
	// Pipeline is the core pipeline configuration. Pipeline.Audit is
	// ignored: auditing is selected per request with ?audit=1.
	Pipeline core.Config
	// CacheSize bounds the prepared-publication LRU. Default 16.
	CacheSize int
	// MaxInFlight bounds concurrent solves. Default GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a solve slot; beyond it
	// requests are shed with 429. Default 4×MaxInFlight; negative means
	// no queue at all (shed whenever every slot is busy).
	MaxQueue int
	// SolveTimeout is the server-side budget for one solve (and the cap
	// on any client-requested timeout_ms). Default 60s.
	SolveTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 responses. Default 1s.
	RetryAfter time.Duration
	// AuditTop / AuditTolerance configure ?audit=1 audits; zero values
	// take the audit package defaults (5 rows, 1e-6).
	AuditTop       int
	AuditTolerance float64
	// DeltaChain enables incremental solving (the -delta flag): each
	// publication's cache entry chains the most recent converged solve's
	// system and solution, and requests carrying "delta": true diff
	// against that baseline and re-solve only changed decomposition
	// components. Off by default; vague (eps>0) and audited solves never
	// use the chain. Reuse changes solver counters (iterations,
	// reused/dirty components), never the posterior.
	DeltaChain bool
	// History, when non-nil, receives a durable record for every finished
	// solve and backs GET /v1/history and /debug/regressions; its most
	// recent records also seed the done ring on startup, so /debug/solves
	// and the SSE replay survive a restart. Nil disables the endpoints
	// (they return 404).
	History *history.Store
	// DoneRing caps the ring of finished solves kept for /debug/solves
	// and subscribe-after-done SSE replay. Default 32. With History set,
	// up to DoneRing recovered records are adopted into the ring at
	// startup.
	DoneRing int
	// SSEKeepAlive is the idle interval after which event streams emit a
	// comment heartbeat (":" frame) so proxies don't sever long solves.
	// Default 15s; negative disables.
	SSEKeepAlive time.Duration
	// Registry receives the server and pipeline metrics. A private
	// registry is created when nil so metrics code never branches.
	Registry *telemetry.Registry
	// Tracer, when non-nil, receives spans for every pipeline stage.
	Tracer *telemetry.Tracer
	// Logger receives structured request/drain logs; discard when nil.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	c.Pipeline.Audit = nil
	if c.CacheSize <= 0 {
		c.CacheSize = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DoneRing <= 0 {
		c.DoneRing = defaultDoneRetention
	}
	if c.SSEKeepAlive == 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Server is the pmaxentd HTTP service. Create with New; it implements
// http.Handler.
type Server struct {
	cfg    Config
	q      *core.Quantifier
	cache  *preparedCache
	flight *flightGroup
	lim    *limiter
	live   *solveRegistry
	retry  *retryHint
	reg    *telemetry.Registry
	log    *slog.Logger
	mux    *http.ServeMux

	// base is the detached context solves run under: it carries the
	// telemetry wiring and is canceled only by Close or a drain
	// deadline, never by an individual request.
	base       context.Context
	cancelBase context.CancelFunc

	// drainMu serializes admission against Drain: beginWork registers
	// in solves under a read lock so Drain's flag flip + Wait cannot
	// miss a just-admitted solve.
	drainMu  sync.RWMutex
	draining bool
	solves   sync.WaitGroup

	// sseClients counts attached event-stream subscribers (the
	// pmaxentd_sse_clients gauge).
	sseClients atomic.Int64

	// solveHook, when set, runs on the leader goroutine after a solve
	// slot is acquired and before the solve starts — a test seam for
	// holding a slot at a known point.
	solveHook func()
	// maxBody bounds request bodies: maxBodyBytes, lowered by tests that
	// send a body past the limit.
	maxBody int64
}

// New builds a Server from cfg (see Config for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base := telemetry.WithMetrics(context.Background(), cfg.Registry)
	if cfg.Tracer != nil {
		base = telemetry.WithTracer(base, cfg.Tracer)
	}
	if cfg.Logger != nil {
		base = telemetry.WithLogger(base, cfg.Logger)
	}
	base, cancel := context.WithCancel(base)
	s := &Server{
		cfg:        cfg,
		q:          core.New(cfg.Pipeline),
		flight:     newFlightGroup(),
		lim:        newLimiter(cfg.MaxInFlight, cfg.MaxQueue),
		live:       newSolveRegistry(cfg.Registry, cfg.DoneRing),
		retry:      &retryHint{},
		reg:        cfg.Registry,
		log:        telemetry.Logger(base),
		base:       base,
		cancelBase: cancel,
		maxBody:    maxBodyBytes,
	}
	s.cache = newPreparedCache(cfg.CacheSize, func() {
		s.reg.Counter("pmaxentd_cache_evictions_total").Add(1)
	})
	s.declareMetrics()
	if cfg.History != nil {
		// Seed the done ring with the newest recovered records so
		// pre-restart solves stay addressable; journal order (oldest of
		// the adopted slice first) keeps the ring newest-last.
		recs := cfg.History.Recent(cfg.DoneRing, "")
		for i := len(recs) - 1; i >= 0; i-- {
			s.live.adopt(recs[i])
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quantify", s.handleQuantify)
	mux.HandleFunc("POST /v1/quantify/batch", s.handleQuantifyBatch)
	mux.HandleFunc("GET /v1/solves/{id}/events", s.handleSolveEvents)
	mux.HandleFunc("POST /v1/rules/mine", s.handleMine)
	mux.HandleFunc("GET /v1/history", s.handleHistory)
	mux.HandleFunc("GET /v1/history/{digest}", s.handleHistoryDigest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	mux.HandleFunc("GET /debug/regressions", s.handleRegressions)
	s.mux = mux
	return s
}

// declareMetrics pre-registers every pmaxentd_* series so a scrape (and
// the CI allowlist check) sees the full surface from the first request —
// lazily created metrics would otherwise pop in and out of existence
// depending on which code paths have run. Each family carries HELP text;
// metricslint enforces both its presence and the unit-suffix convention.
func (s *Server) declareMetrics() {
	for name, help := range map[string]string{
		"pmaxentd_requests_total":            "HTTP requests accepted by the v1 API.",
		"pmaxentd_coalesced_total":           "Requests that joined another caller's in-flight solve.",
		"pmaxentd_shed_total":                "Requests shed with 429 because the admission queue was full.",
		"pmaxentd_errors_total":              "Requests that ended in an error response.",
		"pmaxentd_mine_total":                "Completed rule-mining requests.",
		"pmaxentd_batch_requests_total":      "Batch quantify requests accepted.",
		"pmaxentd_batch_variants_total":      "Knowledge variants solved across all batch requests.",
		"pmaxentd_cache_hits_total":          "Prepared-system cache hits.",
		"pmaxentd_cache_misses_total":        "Prepared-system cache misses.",
		"pmaxentd_cache_evictions_total":     "Prepared systems evicted from the LRU cache.",
		"pmaxentd_history_records_total":     "Solve records appended to the history store.",
		"pmaxentd_history_recovered_total":   "Solve records recovered from the journal at startup.",
		"pmaxentd_history_dropped_total":     "Records dropped because the write-behind queue was full.",
		"pmaxentd_history_torn_frames_total": "Torn or corrupt journal frames skipped during recovery.",
		"pmaxentd_history_fsyncs_total":      "Journal fsync calls.",
		"pmaxentd_regression_checks_total":   "Regression-detector refreshes.",
		"pmaxentd_regression_detected_total": "Regressions newly detected.",
		"pmaxentd_scheme_requests_total":     "Quantify requests that declared an explicit publication scheme.",
		"pmaxentd_scheme_unknown_total":      "Requests rejected for an unknown or malformed scheme declaration.",
		"pmaxentd_scheme_boxed_solves_total": "Solves routed through the boxed (inequality) dual for a boxed scheme.",
	} {
		s.reg.Counter(name)
		s.reg.SetHelp(name, help)
	}
	for name, help := range map[string]string{
		"pmaxentd_cache_entries":                  "Prepared systems currently cached.",
		"pmaxentd_cache_oldest_entry_age_seconds": "Age of the oldest cached prepared system.",
		"pmaxentd_inflight":                       "Solves currently holding an admission slot.",
		"pmaxentd_queue_depth":                    "Requests waiting for an admission slot.",
		"pmaxentd_solves_live":                    "Entries in the live solve table.",
		"pmaxentd_sse_clients":                    "Attached solve-event stream subscribers.",
		"pmaxentd_history_segments":               "Journal segment files on disk.",
		"pmaxentd_history_bytes":                  "Journal bytes on disk across all segments.",
		"pmaxentd_regression_active":              "Currently active convergence/latency regressions.",
	} {
		s.reg.Gauge(name)
		s.reg.SetHelp(name, help)
	}
	for name, help := range map[string]string{
		"pmaxentd_request_duration_seconds":        "End-to-end quantify request latency.",
		"pmaxentd_queue_wait_seconds":              "Time requests spent waiting for an admission slot.",
		"pmaxentd_prepare_duration_seconds":        "Invariant-system build time (cache misses only).",
		"pmaxentd_solve_duration_seconds":          "Optimizer solve-stage latency.",
		"pmaxentd_audit_duration_seconds":          "Solve-audit stage latency (?audit=1 only).",
		"pmaxentd_history_append_duration_seconds": "Journal append latency (write-behind path).",
	} {
		s.reg.Histogram(name, telemetry.DurationBuckets)
		s.reg.SetHelp(name, help)
	}
	// The pipeline-level pmaxent_* families are recorded by internal/core
	// and internal/maxent against the same registry; several only fire on
	// particular code paths (decomposed solves, non-convergence, delta
	// solves), so declare them all here for the same scrape-stability
	// reason.
	for name, help := range map[string]string{
		"pmaxent_bucketize_total":                     "Bucketize pipeline runs.",
		"pmaxent_mine_total":                          "Rule-mining pipeline runs.",
		"pmaxent_quantify_total":                      "Quantification pipeline runs.",
		"pmaxent_solve_total":                         "Maximum-entropy solves.",
		"pmaxent_solve_unconverged_total":             "Solves that stopped unconverged, at the iteration cap or on a line-search stall.",
		"pmaxent_solve_reused_components_total":       "Components delta solves carried over verbatim from their baseline.",
		"pmaxent_solve_dirty_components_total":        "Components delta solves re-solved as changed or new.",
		"pmaxent_dual_iterations_total":               "Dual-optimizer iterations across all solves.",
		"pmaxent_decompose_buckets_total":             "Buckets routed through component decomposition.",
		"pmaxent_decompose_buckets_closed_form_total": "Decomposed singleton buckets answered in closed form.",
	} {
		s.reg.Counter(name)
		s.reg.SetHelp(name, help)
	}
	for name, help := range map[string]string{
		"pmaxent_solve_workers":        "Component workers used by the latest solve.",
		"pmaxent_solve_kernel_workers": "Kernel workers used by the latest solve.",
		"pmaxent_dual_last_grad_norm":  "Final infinity-norm dual gradient of the latest solve.",
	} {
		s.reg.Gauge(name)
		s.reg.SetHelp(name, help)
	}
	for name, help := range map[string]string{
		"pmaxent_bucketize_duration_seconds": "Bucketize stage latency.",
		"pmaxent_mine_duration_seconds":      "Rule-mining stage latency.",
		"pmaxent_quantify_duration_seconds":  "Whole quantification pipeline latency.",
		"pmaxent_solve_duration_seconds":     "Maximum-entropy solve latency.",
	} {
		s.reg.Histogram(name, telemetry.DurationBuckets)
		s.reg.SetHelp(name, help)
	}
	for name, help := range map[string]string{
		"pmaxent_bucketize_buckets":          "Buckets produced per bucketize run.",
		"pmaxent_mine_rules":                 "Rules mined per run.",
		"pmaxent_formulate_constraints":      "Constraints per formulated system.",
		"pmaxent_solve_iterations":           "Optimizer iterations per solve.",
		"pmaxent_solve_evaluations":          "Objective evaluations per solve.",
		"pmaxent_solve_active_variables":     "Active variables per solve.",
		"pmaxent_component_active_variables": "Active variables per decomposed component.",
		"pmaxent_solve_reduced_dual_dim":     "Dual dimension the optimizer ran on after presolve.",
	} {
		s.reg.Histogram(name, telemetry.CountBuckets)
		s.reg.SetHelp(name, help)
	}
	// The admission limits are configuration, but exporting them beside
	// the depth gauges lets a dashboard show utilization without knowing
	// the flags.
	s.reg.Gauge("pmaxentd_inflight_limit").Set(float64(s.cfg.MaxInFlight))
	s.reg.SetHelp("pmaxentd_inflight_limit", "Configured concurrent-solve limit.")
	s.reg.Gauge("pmaxentd_queue_limit").Set(float64(s.cfg.MaxQueue))
	s.reg.SetHelp("pmaxentd_queue_limit", "Configured admission-queue limit.")
	s.reg.SetHelp("pmaxentd_build_info", "Build provenance of the serving binary.")
	bi := buildinfo.Get()
	s.reg.Info("pmaxentd_build_info", map[string]string{
		"version":   bi.Version,
		"commit":    bi.Commit,
		"goversion": bi.GoVersion,
	})
}

// accessInfo accumulates the request-scoped fields of the access-log
// line that only the handler knows (which solve served it, cache
// disposition, queue wait). The middleware installs a pointer in the
// request context; handlers fill it in; the middleware logs it after the
// handler returns — handlers run synchronously inside ServeHTTP, so no
// locking is needed.
type accessInfo struct {
	solveID   string
	cache     string
	coalesced bool
	queueWait time.Duration
	solve     time.Duration
	// outcome is "ok" for successful solves and the error-taxonomy kind
	// otherwise — the field that joins an access-log line with the
	// history record written under the same request ID.
	outcome string
}

type accessInfoKey struct{}

// accessFrom returns the request's accessInfo; a throwaway struct when
// the middleware did not run (direct handler tests), so handlers never
// nil-check.
func accessFrom(ctx context.Context) *accessInfo {
	if ai, ok := ctx.Value(accessInfoKey{}).(*accessInfo); ok {
		return ai
	}
	return &accessInfo{}
}

// statusRecorder captures the status code and body size for the access
// log while passing Flush through — the SSE endpoints stream through
// this same wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP resolves the request's identity, dispatches to the v1
// routes, and emits one structured access-log line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestIdentity(r)
	w.Header().Set("X-Request-Id", rid)
	ai := &accessInfo{}
	ctx := telemetry.WithRequestID(r.Context(), rid)
	ctx = context.WithValue(ctx, accessInfoKey{}, ai)
	rec := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	s.log.Info("pmaxentd: access",
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"duration_ms", float64(time.Since(start).Nanoseconds())/1e6,
		"request_id", rid,
		"solve_id", ai.solveID,
		"cache", ai.cache,
		"outcome", ai.outcome,
		"coalesced", ai.coalesced,
		"queue_wait_ms", float64(ai.queueWait.Nanoseconds())/1e6,
		"solve_ms", float64(ai.solve.Nanoseconds())/1e6,
		"bytes", rec.bytes)
}

// Registry exposes the server's metrics registry (for expvar/Prometheus
// export by the daemon).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// isDraining reports whether the server has stopped admitting work.
func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// beginWork registers a unit of solve work, refusing when draining. Every
// true return must be paired with endWork.
func (s *Server) beginWork() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.solves.Add(1)
	return true
}

func (s *Server) endWork() { s.solves.Done() }

// Drain stops admitting requests and waits for in-flight solves to
// finish. When ctx expires first, the remaining solves are force-canceled
// (they fail with ErrInterrupted) and ctx's error is returned. After
// Drain, /readyz reports 503 and new requests are refused with 503.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		s.log.Info("pmaxentd: draining", "inflight", s.lim.inflight(), "queued", s.lim.queued())
	}
	done := make(chan struct{})
	go func() {
		s.solves.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// Close force-cancels all in-flight work immediately. Prefer Drain.
func (s *Server) Close() error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.cancelBase()
	s.solves.Wait()
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	writeJSON(w, http.StatusOK, &HealthzResponse{
		Status:    "ok",
		Version:   bi.Version,
		Commit:    bi.Commit,
		Modified:  bi.Modified,
		GoVersion: bi.GoVersion,
		Schemes:   scheme.Describe(),
	})
}

// handleMetrics serves the Prometheus text exposition of the registry,
// refreshing the point-in-time gauges first so a scrape never shows
// stale load or cache-age numbers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.observeLoad()
	s.reg.Gauge("pmaxentd_cache_entries").Set(float64(s.cache.len()))
	s.reg.Gauge("pmaxentd_cache_oldest_entry_age_seconds").
		Set(s.cache.oldestAge(time.Now()).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteProm(w)
}

// handleDebugSolves snapshots the live solve table (plus the retained
// ring of finished solves, distinguished by their state field).
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &DebugSolvesResponse{Solves: s.live.snapshot()})
}

// handleSolveEvents streams one solve's event frames over SSE: the full
// replay of what already happened, then live frames until the terminal
// "result"/"error" frame. Works for finished solves still in the
// retention ring (pure replay) and for solves started by someone else —
// this is how an operator attaches to a long-running solve they saw in
// /debug/solves.
func (s *Server) handleSolveEvents(w http.ResponseWriter, r *http.Request) {
	ls := s.live.find(r.PathValue("id"))
	if ls == nil {
		s.writeError(w, r.Context(), fmt.Errorf("%w: unknown solve %q", errNotFound, r.PathValue("id")))
		return
	}
	s.streamFrames(w, r.Context(), ls)
}

// streamFrames writes a solve's SSE stream: replay, then live frames
// until terminal, ctx cancellation (client disconnect) or server drain.
func (s *Server) streamFrames(w http.ResponseWriter, ctx context.Context, ls *liveSolve) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, ctx, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	replay, ch := ls.subscribe()
	if ch != nil {
		defer ls.unsubscribe(ch)
	}
	s.reg.Gauge("pmaxentd_sse_clients").Set(float64(s.sseClients.Add(1)))
	defer func() {
		s.reg.Gauge("pmaxentd_sse_clients").Set(float64(s.sseClients.Add(-1)))
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	for _, f := range replay {
		writeSSE(w, f)
		if f.terminal() {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	if ch == nil {
		return
	}
	// Idle streams heartbeat with an SSE comment frame so proxies and
	// load balancers don't sever a long solve between iteration samples.
	var keepAlive <-chan time.Time
	if s.cfg.SSEKeepAlive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepAlive)
		defer t.Stop()
		keepAlive = t.C
	}
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				return // terminal frame was delivered (or dropped); stream over
			}
			writeSSE(w, f)
			fl.Flush()
			if f.terminal() {
				return
			}
		case <-keepAlive:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE renders one frame in text/event-stream framing. Payloads are
// single-line JSON, so no data-line splitting is needed.
func writeSSE(w http.ResponseWriter, f sseFrame) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, f.data)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ready",
		"cache_entries": s.cache.len(),
		"inflight":      s.lim.inflight(),
		"queued":        s.lim.queued(),
		"schemes":       scheme.Names(),
	})
}

// waitBudget derives the time a caller is willing to wait: the client's
// timeout_ms capped by the server's solve budget (the solve cannot take
// longer anyway, so waiting longer only delays the error).
func (s *Server) waitBudget(timeoutMS int64) time.Duration {
	d := s.cfg.SolveTimeout
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; c < d {
			d = c
		}
	}
	return d
}

func (s *Server) handleQuantify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("pmaxentd_requests_total").Add(1)
	if s.isDraining() {
		s.writeError(w, r.Context(), errDraining)
		return
	}

	var req QuantifyRequest
	known, err := s.decodeView(w, r, &req)
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	if len(req.Published) == 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: missing \"published\"", errBadRequest))
		return
	}
	rs, schemeErr := resolveScheme(req.Scheme)
	vkey, view, err := s.readView(req.Published, rs, schemeErr, known)
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	pub := view.pub
	var knowledge []constraint.DistributionKnowledge
	if len(req.Knowledge) > 0 {
		knowledge, err = constraint.ParseKnowledgeJSON(bytes.NewReader(req.Knowledge), pub.Schema())
		if err != nil {
			s.writeError(w, r.Context(), fmt.Errorf("%w: knowledge: %v", errBadRequest, err))
			return
		}
	}
	if schemeErr != nil {
		s.writeError(w, r.Context(), schemeErr)
		return
	}
	if rs != nil {
		s.reg.Counter("pmaxentd_scheme_requests_total").Add(1)
	}
	wantAudit := boolQuery(r, "audit")
	if wantAudit && req.Eps > 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: vague (eps>0) solves are not audited", errBadRequest))
		return
	}
	// Boxed schemes solve through the inequality dual, which carries no
	// audit trajectories and no vague-knowledge layering.
	if rs.boxed() && wantAudit {
		s.writeError(w, r.Context(), fmt.Errorf("%w: scheme %q solves are not audited", errBadRequest, rs.schemeName()))
		return
	}
	if rs.boxed() && req.Eps > 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: scheme %q does not support vague (eps>0) knowledge", errBadRequest, rs.schemeName()))
		return
	}
	// Delta reuse needs the server-side chain and an equality solve whose
	// posterior the reuse cannot perturb: audited solves capture
	// per-component trajectories a reused component does not have, vague
	// solves bypass the prepared cache entirely, and boxed-scheme solves
	// have no decomposed equality components to diff.
	delta := req.Delta && s.cfg.DeltaChain && req.Eps == 0 && !wantAudit && !rs.boxed()
	if err := view.digestUnder(rs); err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	digest := view.digest

	// Every request pre-registers a live-solve entry; losing the
	// single-flight race below aborts it and adopts the leader's.
	ai := accessFrom(r.Context())
	ls := s.live.begin(digest, telemetry.RequestID(r.Context()), rs.schemeName(), len(knowledge), req.Eps, wantAudit)

	// The wait — not the solve — is bounded by the request context. The
	// leader runs detached under the server's base context so followers
	// (and the leader's own requester) can give up independently.
	waitCtx, cancel := context.WithTimeout(r.Context(), s.waitBudget(req.TimeoutMS))
	defer cancel()
	key := requestKey(digest, req.Knowledge, req.Eps, wantAudit, delta, rs.key())
	call, joined := s.flight.join(key, ls.id, func(c *flightCall) ([]byte, error) {
		body, err := s.runQuantify(pub, knowledge, digest, req.Eps, wantAudit, delta, rs, ls, &c.meta)
		s.live.finish(ls, body, err)
		s.recordHistory(ls, &c.meta, err)
		return body, err
	})
	if joined {
		s.live.abort(ls)
		s.reg.Counter("pmaxentd_coalesced_total").Add(1)
	}
	ai.solveID = call.solveID
	ai.coalesced = joined

	if boolQuery(r, "stream") {
		s.streamQuantify(w, waitCtx, call, ai)
		if ai.outcome == "ok" {
			s.cache.alias(vkey, view)
		}
		return
	}

	body, err := call.wait(waitCtx)
	fillMeta(ai, call)
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	s.cache.alias(vkey, view)
	s.reg.Histogram("pmaxentd_request_duration_seconds", telemetry.DurationBuckets).
		Observe(time.Since(start).Seconds())
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// readView returns a request's published view under its resolved
// scheme, and the view key of its exact bytes: known, when decodeView
// already hashed them. An aliased key skips the parse and carries the
// digest; otherwise the view is parsed here and digestUnder computes the
// digest once the request's other checks pass. A scheme that failed to
// resolve is not looked up, but its view is still parsed, so a
// publication error takes precedence over it.
func (s *Server) readView(published []byte, rs *resolvedScheme, schemeErr error, known *[32]byte) ([32]byte, viewAlias, error) {
	var key [32]byte
	if schemeErr == nil {
		if known != nil {
			key = *known
		} else {
			key = viewKey(rs, published)
		}
		if view, ok := s.cache.view(key); ok {
			return key, view, nil
		}
	}
	pub, err := bucket.ReadJSON(bytes.NewReader(published))
	if err != nil {
		return key, viewAlias{}, fmt.Errorf("%w: published view: %v", errBadRequest, err)
	}
	return key, viewAlias{pub: pub}, nil
}

// fillMeta copies the flight's accounting into the access-log info —
// only once the flight finished; a caller that gave up while the solve
// was still running has nothing to report.
func fillMeta(ai *accessInfo, call *flightCall) {
	select {
	case <-call.done:
		ai.cache = call.meta.cache
		ai.queueWait = call.meta.queueWait
		ai.solve = call.meta.solve
		if call.err == nil {
			ai.outcome = "ok"
		} else if _, kind := classify(call.err); ai.outcome == "" {
			ai.outcome = kind
		}
	default:
	}
}

// recordHistory journals one finished solve. Runs on the single-flight
// leader goroutine right after the live registry's finish, so the record
// matches what /debug/solves and the SSE terminal frame reported.
func (s *Server) recordHistory(ls *liveSolve, meta *callMeta, solveErr error) {
	if s.cfg.History == nil {
		return
	}
	rec := history.Record{
		SolveID:     ls.id,
		RequestID:   ls.requestID,
		Digest:      ls.digest,
		Scheme:      ls.scheme,
		Outcome:     "ok",
		StartUnixNS: ls.started.UnixNano(),
		Knowledge:   ls.knowledge,
		Eps:         ls.eps,
		Audited:     ls.audit,
		Cache:       meta.cache,
		QueueWaitMS: float64(meta.queueWait.Nanoseconds()) / 1e6,
		ElapsedMS:   ls.elapsedMS(),
	}
	if solveErr != nil {
		rec.Outcome = "error"
		_, rec.ErrorKind = classify(solveErr)
	}
	if rep := meta.report; rep != nil {
		if len(rep.Timings) > 0 {
			rec.StagesMS = make(map[string]float64, len(rep.Timings))
			for _, st := range rep.Timings {
				rec.StagesMS[st.Stage] = float64(st.Duration.Nanoseconds()) / 1e6
			}
		}
		st := rep.Solution.Stats
		rec.Solver = &history.SolverSummary{
			Algorithm:        s.q.Config().Solve.Algorithm.String(),
			Iterations:       st.Iterations,
			Evaluations:      st.Evaluations,
			Converged:        st.Converged,
			MaxViolation:     st.MaxViolation,
			Components:       st.Components,
			Variables:        int(ls.variables.Load()),
			ReducedDualDim:   st.ReducedDualDim,
			ReusedComponents: st.ReusedComponents,
			DirtyComponents:  st.DirtyComponents,
		}
		if a := rep.Audit; a != nil {
			rec.AuditSummary = &history.AuditSummary{
				MaxViolation: a.MaxViolation,
				DualityGap:   a.DualityGap,
				EntropyBits:  a.EntropyBits,
				Feasible:     a.Feasible,
			}
		}
	}
	s.cfg.History.Append(rec)
}

// streamQuantify serves POST /v1/quantify?stream=1: instead of blocking
// for the final bytes, the response becomes the solve's SSE stream —
// replayed from the start for followers who joined late — ending with a
// "result" frame that carries the exact bytes a non-streamed request
// would have received (or an "error" frame).
func (s *Server) streamQuantify(w http.ResponseWriter, ctx context.Context, call *flightCall, ai *accessInfo) {
	ls := s.live.find(call.solveID)
	if ls == nil {
		// The flight finished so long ago its registry entry aged out of
		// the retention ring; degrade to the non-streamed response.
		body, err := call.wait(ctx)
		fillMeta(ai, call)
		if err != nil {
			s.writeError(w, ctx, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	s.streamFrames(w, ctx, ls)
	fillMeta(ai, call)
}

// handleQuantifyBatch serves POST /v1/quantify/batch: many knowledge
// variants over one published view. Every variant runs through the same
// single-flight group and leader path as an individual POST /v1/quantify
// — same key, same response bytes — so the invariant system is prepared
// once, identical variants coalesce (with each other and with concurrent
// individual requests), and the admission limiter is the worker pool
// bounding batch parallelism exactly as it bounds independent requests.
//
// With "delta": true (and the server's -delta chain enabled), variants
// run sequentially instead: each diffs against the nearest previously
// converged variant chained on the publication's cache entry and
// re-solves only changed components.
//
// ?stream=1 turns the response into an SSE stream: one "variant.done"
// frame per completed variant (completion order), then a terminal
// "result" frame carrying the full batch response bytes.
func (s *Server) handleQuantifyBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("pmaxentd_requests_total").Add(1)
	if s.isDraining() {
		s.writeError(w, r.Context(), errDraining)
		return
	}
	var req BatchQuantifyRequest
	known, err := s.decodeView(w, r, &req)
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	if len(req.Published) == 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: missing \"published\"", errBadRequest))
		return
	}
	if len(req.Variants) == 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: missing \"variants\"", errBadRequest))
		return
	}
	rs, schemeErr := resolveScheme(req.Scheme)
	vkey, view, err := s.readView(req.Published, rs, schemeErr, known)
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	pub := view.pub
	// Parse every variant up front: a malformed variant fails the whole
	// batch before any solve starts, not halfway through.
	parsed := make([][]constraint.DistributionKnowledge, len(req.Variants))
	for i, v := range req.Variants {
		if len(v.Knowledge) == 0 {
			continue
		}
		parsed[i], err = constraint.ParseKnowledgeJSON(bytes.NewReader(v.Knowledge), pub.Schema())
		if err != nil {
			s.writeError(w, r.Context(), fmt.Errorf("%w: variant %d knowledge: %v", errBadRequest, i, err))
			return
		}
	}
	if schemeErr != nil {
		s.writeError(w, r.Context(), schemeErr)
		return
	}
	if rs != nil {
		s.reg.Counter("pmaxentd_scheme_requests_total").Add(1)
	}
	if err := view.digestUnder(rs); err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	digest := view.digest
	delta := req.Delta && s.cfg.DeltaChain && !rs.boxed()
	s.reg.Counter("pmaxentd_batch_requests_total").Add(1)
	s.reg.Counter("pmaxentd_batch_variants_total").Add(int64(len(req.Variants)))

	waitCtx, cancel := context.WithTimeout(r.Context(), s.waitBudget(req.TimeoutMS))
	defer cancel()
	rid := telemetry.RequestID(r.Context())

	runVariant := func(i int) BatchVariantResult {
		kraw := req.Variants[i].Knowledge
		ls := s.live.begin(digest, rid, rs.schemeName(), len(parsed[i]), 0, false)
		key := requestKey(digest, kraw, 0, false, delta, rs.key())
		call, joined := s.flight.join(key, ls.id, func(c *flightCall) ([]byte, error) {
			body, err := s.runQuantify(pub, parsed[i], digest, 0, false, delta, rs, ls, &c.meta)
			s.live.finish(ls, body, err)
			s.recordHistory(ls, &c.meta, err)
			return body, err
		})
		if joined {
			s.live.abort(ls)
			s.reg.Counter("pmaxentd_coalesced_total").Add(1)
		}
		out := BatchVariantResult{Index: i, SolveID: call.solveID}
		body, err := call.wait(waitCtx)
		if err != nil {
			_, kind := classify(err)
			out.Error = &ErrorResponse{Error: err.Error(), Kind: kind}
			return out
		}
		out.Response = json.RawMessage(bytes.TrimRight(body, "\n"))
		return out
	}

	results := make([]BatchVariantResult, len(req.Variants))
	completed := make(chan BatchVariantResult, len(req.Variants))
	go func() {
		if delta {
			// Sequential: variant i+1's diff sees variant i's converged
			// state — the chain is the point of the delta batch.
			for i := range req.Variants {
				completed <- runVariant(i)
			}
		} else {
			var wg sync.WaitGroup
			for i := range req.Variants {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					completed <- runVariant(i)
				}(i)
			}
			wg.Wait()
		}
		close(completed)
	}()

	stream := boolQuery(r, "stream")
	var fl http.Flusher
	if stream {
		if f, ok := w.(http.Flusher); ok {
			fl = f
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-store")
			h.Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
		} else {
			stream = false
		}
	}
	failed := 0
	for res := range completed {
		results[res.Index] = res
		if res.Error != nil {
			failed++
		}
		if stream {
			data, _ := json.Marshal(map[string]any{
				"index":      res.Index,
				"solve_id":   res.SolveID,
				"ok":         res.Error == nil,
				"elapsed_ms": float64(time.Since(start).Nanoseconds()) / 1e6,
			})
			writeSSE(w, sseFrame{event: "variant.done", data: data})
			fl.Flush()
		}
	}
	resp := &BatchQuantifyResponse{
		Digest:    digest,
		Scheme:    rs.echo(),
		Variants:  results,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	ai := accessFrom(r.Context())
	if failed == 0 {
		ai.outcome = "ok"
	} else if ai.outcome == "" {
		ai.outcome = "partial"
	}
	s.reg.Histogram("pmaxentd_request_duration_seconds", telemetry.DurationBuckets).
		Observe(time.Since(start).Seconds())
	data, err := encodeBatch(resp)
	if err != nil {
		if stream {
			return // the stream's headers are out: it ends without a result frame
		}
		s.writeError(w, r.Context(), fmt.Errorf("server: encoding batch response: %w", err))
		return
	}
	s.cache.alias(vkey, view)
	if stream {
		writeSSE(w, sseFrame{event: "result", data: data})
		fl.Flush()
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(data, '\n'))
}

// runQuantify is the single-flight leader: admission, prepared-cache
// lookup/build, solve, and response encoding. It runs detached from any
// request context; ls receives its live progress and meta the
// accounting shared with coalesced followers. delta routes the solve
// through the publication's delta chain (see Config.DeltaChain); rs is
// the request's resolved publication scheme (nil = classic anatomy).
func (s *Server) runQuantify(pub *bucket.Bucketized, knowledge []constraint.DistributionKnowledge, digest string, eps float64, wantAudit, delta bool, rs *resolvedScheme, ls *liveSolve, meta *callMeta) ([]byte, error) {
	start := time.Now()
	if !s.beginWork() {
		return nil, errDraining
	}
	defer s.endWork()

	ctx, cancel := context.WithTimeout(s.base, s.cfg.SolveTimeout)
	defer cancel()
	// The detached context re-carries the leader request's identity (the
	// base context cannot: it is shared) plus the live-solve observer the
	// maxent lifecycle and iteration events feed. The solve-event logger
	// is re-tagged too, so every solve.start/…/solve.done JSONL line joins
	// the access log and audit on the same request and solve IDs.
	ctx = telemetry.WithRequestID(ctx, ls.requestID)
	ctx = telemetry.WithLogger(ctx,
		telemetry.Logger(ctx).With("request_id", ls.requestID, "solve_id", ls.id))
	ctx = telemetry.WithSolveObserver(ctx, ls)
	ctx, span := telemetry.Start(ctx, "server.quantify",
		telemetry.String("digest", digest[:12]),
		telemetry.String("request_id", ls.requestID),
		telemetry.String("solve_id", ls.id),
		telemetry.Int("knowledge", len(knowledge)),
		telemetry.Float("eps", eps),
		telemetry.Bool("audit", wantAudit))
	defer span.End()

	queueStart := time.Now()
	if err := s.lim.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.reg.Counter("pmaxentd_shed_total").Add(1)
		} else {
			// The request waited in line and gave up (or timed out):
			// that wait is real evidence for the Retry-After hint.
			s.noteQueueWait(time.Since(queueStart))
		}
		return nil, err
	}
	queueWait := time.Since(queueStart)
	s.noteQueueWait(queueWait)
	meta.queueWait = queueWait
	s.live.markRunning(ls, queueWait)
	defer func() {
		s.lim.release()
		s.observeLoad()
	}()
	s.observeLoad()
	if s.solveHook != nil {
		s.solveHook()
	}

	var auditOpts *audit.Options
	if wantAudit {
		auditOpts = &audit.Options{Top: s.cfg.AuditTop, Tolerance: s.cfg.AuditTolerance}
	}

	// A vague solve builds a fresh, uncached base: the cached entry's
	// warm seeds and delta chain belong to its equality solves.
	entry, cacheState := &cacheEntry{}, "bypass"
	if eps <= 0 {
		var hit bool
		entry, hit = s.cache.get(digest)
		if hit {
			cacheState = "hit"
			s.reg.Counter("pmaxentd_cache_hits_total").Add(1)
		} else {
			cacheState = "miss"
			s.reg.Counter("pmaxentd_cache_misses_total").Add(1)
		}
	}
	prepared, prepTime, err := entry.build(ctx, s.q, pub, rs.schemeOf())
	if err != nil {
		if cacheState != "bypass" {
			s.cache.drop(digest)
		}
		return nil, s.solveErr(ctx, err)
	}
	if prepared.Boxed() {
		s.reg.Counter("pmaxentd_scheme_boxed_solves_total").Add(1)
	}
	qopts := core.QuantifyOptions{Knowledge: knowledge, Warm: entry.takeWarm(), Audit: auditOpts, Eps: eps}
	var rep *core.Report
	if delta {
		var next *core.DeltaState
		rep, next, err = prepared.QuantifyDelta(ctx, qopts, entry.takeState())
		if err == nil {
			entry.storeState(next)
		}
	} else {
		rep, err = prepared.QuantifyWithOptions(ctx, qopts)
	}
	if err != nil {
		return nil, s.solveErr(ctx, err)
	}
	if rep.Solution.Stats.Converged {
		entry.storeWarm(rep.Solution.Duals)
	}
	if cacheState != "hit" {
		// A request that built its base reports the build as its
		// prepare stage; cache hits never carry one — the observable
		// signal that the build was skipped.
		rep.Timings = append(core.Timings{{Stage: core.StagePrepare, Duration: prepTime}}, rep.Timings...)
	}
	s.reg.Gauge("pmaxentd_cache_entries").Set(float64(s.cache.len()))
	meta.cache = cacheState
	meta.report = rep

	// Per-stage latency histograms from the pipeline's own timing
	// breakdown: prepare appears only on cache misses, audit only when
	// requested — absence of observations is itself the signal.
	for _, st := range rep.Timings {
		switch st.Stage {
		case core.StagePrepare:
			s.reg.Histogram("pmaxentd_prepare_duration_seconds", telemetry.DurationBuckets).
				Observe(st.Duration.Seconds())
		case core.StageSolve:
			meta.solve = st.Duration
			s.reg.Histogram("pmaxentd_solve_duration_seconds", telemetry.DurationBuckets).
				Observe(st.Duration.Seconds())
		case core.StageAudit:
			s.reg.Histogram("pmaxentd_audit_duration_seconds", telemetry.DurationBuckets).
				Observe(st.Duration.Seconds())
		}
	}

	resp := responseFields(digest, cacheState, eps, rep, s.q.Config().Solve.Algorithm)
	resp.Scheme = rs.echo()
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	body, err := encodeResponse(resp, rep.Posterior, pub.Schema())
	if err != nil {
		return nil, fmt.Errorf("server: encoding response: %w", err)
	}
	return body, nil
}

// noteQueueWait feeds one observed admission wait into the queue-wait
// histogram and the adaptive Retry-After hint.
func (s *Server) noteQueueWait(d time.Duration) {
	s.retry.observe(d)
	s.reg.Histogram("pmaxentd_queue_wait_seconds", telemetry.DurationBuckets).
		Observe(d.Seconds())
}

// solveErr refines a solve failure: when the server-side budget expired,
// the interrupted-solve error is reported as a deadline (504), not a
// cancellation (499).
func (s *Server) solveErr(ctx context.Context, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("server: solve budget (%v) exhausted: %w", s.cfg.SolveTimeout, context.DeadlineExceeded)
	}
	return err
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("pmaxentd_requests_total").Add(1)
	if s.isDraining() {
		s.writeError(w, r.Context(), errDraining)
		return
	}
	var req MineRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, s.maxBody), &req); err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	if req.CSV == "" || req.SA == "" {
		s.writeError(w, r.Context(), fmt.Errorf("%w: \"csv\" and \"sa\" are required", errBadRequest))
		return
	}
	if req.KPos < 0 || req.KNeg < 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: \"k_pos\" and \"k_neg\" must not be negative", errBadRequest))
		return
	}
	roles := map[string]dataset.Role{req.SA: dataset.Sensitive}
	for _, id := range req.ID {
		roles[id] = dataset.Identifier
	}
	t, err := dataset.ReadCSV(strings.NewReader(req.CSV), roles)
	if err != nil {
		s.writeError(w, r.Context(), fmt.Errorf("%w: csv: %v", errBadRequest, err))
		return
	}
	if t.Schema().SAIndex() < 0 {
		s.writeError(w, r.Context(), fmt.Errorf("%w: column %q not present", errs.ErrNoSensitiveAttribute, req.SA))
		return
	}

	if !s.beginWork() {
		s.writeError(w, r.Context(), errDraining)
		return
	}
	defer s.endWork()
	// Mining is not coalesced (requests carry whole tables and rarely
	// repeat), so it runs under the request context: a disconnected
	// client cancels its own mine.
	ctx, cancel := context.WithTimeout(r.Context(), s.waitBudget(req.TimeoutMS))
	defer cancel()
	ctx = telemetry.WithMetrics(ctx, s.reg)
	if s.cfg.Tracer != nil {
		ctx = telemetry.WithTracer(ctx, s.cfg.Tracer)
	}
	queueStart := time.Now()
	if err := s.lim.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.reg.Counter("pmaxentd_shed_total").Add(1)
		} else {
			s.noteQueueWait(time.Since(queueStart))
		}
		s.writeError(w, r.Context(), err)
		return
	}
	s.noteQueueWait(time.Since(queueStart))
	defer func() {
		s.lim.release()
		s.observeLoad()
	}()
	s.observeLoad()

	minSup := req.MinSupport
	if minSup <= 0 {
		minSup = s.q.Config().MinSupport
	}
	rules, err := assoc.MineContext(ctx, t, assoc.Options{
		MinSupport: minSup,
		Sizes:      req.Sizes,
	})
	if err != nil {
		s.writeError(w, r.Context(), err)
		return
	}
	selected := rules
	if req.KPos > 0 || req.KNeg > 0 {
		selected = assoc.TopK(rules, req.KPos, req.KNeg)
	}
	schema := t.Schema()
	sa := schema.SA()
	wireRules := make([]MineRule, len(selected))
	for i := range selected {
		ru := &selected[i]
		cond := make(map[string]string, len(ru.Attrs))
		for j, pos := range ru.Attrs {
			cond[schema.Attr(pos).Name] = schema.Attr(pos).Value(ru.Values[j])
		}
		wireRules[i] = MineRule{
			If:         cond,
			Then:       sa.Value(ru.SA),
			Positive:   ru.Positive,
			Confidence: ru.Confidence,
			P:          ru.PSA(),
			Support:    ru.Support,
		}
	}
	s.reg.Counter("pmaxentd_mine_total").Add(1)
	writeJSON(w, http.StatusOK, &MineResponse{
		Mined:     len(rules),
		Returned:  len(wireRules),
		Rules:     wireRules,
		ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// observeLoad publishes the admission gauges.
func (s *Server) observeLoad() {
	s.reg.Gauge("pmaxentd_inflight").Set(float64(s.lim.inflight()))
	s.reg.Gauge("pmaxentd_queue_depth").Set(float64(s.lim.queued()))
}

// statusClientClosedRequest is nginx's conventional code for "the client
// went away before the response": the request was canceled, not failed.
const statusClientClosedRequest = 499

// classify maps an error onto the HTTP taxonomy. The mapping mirrors the
// facade's errors.Is documentation: infeasible → 422, interrupted/
// canceled → 499, deadline → 504, invalid input → 400, overload → 429,
// draining → 503. The kind also labels history records and the
// access-log outcome field, so every surface agrees on what a failure
// was.
func classify(err error) (status int, kind string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, errs.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, solver.ErrInterrupted), errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "interrupted"
	case errors.Is(err, errBadRequest),
		errors.Is(err, errScheme),
		errors.Is(err, errs.ErrInvalidSchema),
		errors.Is(err, errs.ErrNoSensitiveAttribute),
		errors.Is(err, assoc.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError classifies err, stamps the access-log outcome, and writes
// the ErrorResponse body.
func (s *Server) writeError(w http.ResponseWriter, ctx context.Context, err error) {
	status, kind := classify(err)
	accessFrom(ctx).outcome = kind
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", s.retry.seconds(s.cfg.RetryAfter))
	}
	s.reg.Counter("pmaxentd_errors_total").Add(1)
	s.log.Warn("pmaxentd: request failed", "status", status, "kind", kind, "err", err)
	resp := &ErrorResponse{Error: err.Error(), Kind: kind}
	if errors.Is(err, errScheme) {
		// Scheme failures carry the supported-name list so a client can
		// self-correct without a second round trip to /healthz.
		resp.Supported = scheme.Names()
		s.reg.Counter("pmaxentd_scheme_unknown_total").Add(1)
	}
	writeJSON(w, status, resp)
}

// decodeBody decodes the first JSON value a request body reader yields,
// rejecting unknown fields so a misspelled option fails loudly instead
// of silently running defaults.
func decodeBody(src io.Reader, dst any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: decoding body: %v", errBadRequest, err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func boolQuery(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// Command pmaxentd serves Privacy-MaxEnt quantification over HTTP.
//
//	pmaxentd [-addr :8080] [-cache 16] [-max-inflight N] [-queue N]
//	         [-timeout 60s] [-retry-after 1s] [-drain-timeout 30s]
//	         [-algorithm auto]
//	         [-delta]
//	         [-history-dir DIR] [-history-retention 65536] [-history-fsync 1s]
//	         [-done-ring 32] [-sse-keepalive 15s]
//	         [-trace-out trace.jsonl] [-solve-log solve.jsonl]
//	         [-pprof localhost:6060]
//
// Endpoints (JSON over HTTP, see internal/server for the wire schema):
//
//	POST /v1/quantify             quantify a published view; ?audit=1
//	                              inlines the solve audit; ?stream=1
//	                              streams progress over SSE, ending with
//	                              a "result" frame carrying the response;
//	                              "delta": true (with -delta) re-solves
//	                              only constraint components changed
//	                              since the publication's last solve
//	POST /v1/quantify/batch       quantify many knowledge variants over
//	                              one published view; variants share one
//	                              prepared system and coalesce with
//	                              identical in-flight requests; ?stream=1
//	                              emits a variant.done SSE frame per
//	                              variant, then the batch result
//	GET  /v1/solves/{id}/events   SSE stream of one solve's lifecycle and
//	                              sampled iteration events
//	GET  /v1/history              recent solve records from the durable
//	                              journal (requires -history-dir);
//	                              /v1/history/{digest} narrows to one
//	                              publication and adds windowed aggregates
//	POST /v1/rules/mine           mine association rules from inline CSV
//	GET  /debug/solves            JSON snapshot of in-flight (and recent)
//	                              solves with live iteration counts
//	GET  /debug/regressions       active convergence/latency drifts from
//	                              the history regression detector
//	GET  /metrics                 Prometheus text exposition (pmaxentd_*)
//	GET  /healthz                 liveness + build provenance
//	GET  /readyz                  readiness (503 while draining)
//
// With -history-dir set, every finished solve is appended to an
// append-only CRC-framed journal there; on startup the journal is
// recovered (crash-torn tails are skipped), so /v1/history and the
// newest -done-ring entries of /debug/solves survive restarts.
//
// Every response carries an X-Request-Id (accepted from the request, or
// derived from a W3C traceparent, or generated); the same ID appears in
// the access log, spans, solve events and audit provenance. The
// companion pmaxentstat command renders /debug/solves + /metrics as a
// live terminal view.
//
// SIGTERM/SIGINT drain the server: new requests get 503, in-flight
// solves finish (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"privacymaxent/internal/core"
	"privacymaxent/internal/history"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/server"
	"privacymaxent/internal/telemetry"
)

type options struct {
	addr         string
	cacheSize    int
	maxInFlight  int
	queue        int
	timeout      time.Duration
	retryAfter   time.Duration
	drainTimeout time.Duration
	algorithm    string
	delta        bool
	historyDir   string
	historyKeep  int
	historyFsync string
	doneRing     int
	sseKeepAlive time.Duration
	traceOut     string
	solveLog     string
	pprofAddr    string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.cacheSize, "cache", 16, "prepared-publication LRU capacity")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "concurrent solve limit (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "admission queue length (0 = 4x max-inflight, negative = no queue)")
	flag.DurationVar(&o.timeout, "timeout", 60*time.Second, "per-solve budget and cap on client timeout_ms")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 responses")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight solves before force-canceling")
	flag.StringVar(&o.algorithm, "algorithm", "auto", "dual solver: auto (Newton or LBFGS per component), lbfgs, gis, iis, steepest, newton")
	flag.BoolVar(&o.delta, "delta", false, "chain delta baselines per publication: \"delta\": true requests re-solve only constraint components changed since the last converged solve")
	flag.StringVar(&o.historyDir, "history-dir", "", "durable solve-history journal directory (empty disables /v1/history)")
	flag.IntVar(&o.historyKeep, "history-retention", 65536, "minimum journal records kept on disk before old segments are deleted")
	flag.StringVar(&o.historyFsync, "history-fsync", "1s", "journal durability: \"always\", \"never\" or an fsync interval like 1s")
	flag.IntVar(&o.doneRing, "done-ring", 32, "finished solves kept for /debug/solves and SSE replay (also caps journal entries adopted at startup)")
	flag.DurationVar(&o.sseKeepAlive, "sse-keepalive", 15*time.Second, "idle interval before event streams emit a comment heartbeat (negative disables)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a JSON-lines span trace of every request to this file")
	flag.StringVar(&o.solveLog, "solve-log", "", "write structured solve lifecycle events as JSON lines to this file")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof and expvar on this extra address")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "pmaxentd:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled, then drains and returns. When ready
// is non-nil the bound address is sent on it once the listener is up —
// the test seam that lets -addr :0 be dialed.
func run(ctx context.Context, o options, ready chan<- string) error {
	alg, err := maxent.ParseAlgorithm(o.algorithm)
	if err != nil {
		return err
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := server.Config{
		Pipeline: core.Config{
			Solve: maxent.Options{Algorithm: alg},
		},
		CacheSize:    o.cacheSize,
		DeltaChain:   o.delta,
		MaxInFlight:  o.maxInFlight,
		MaxQueue:     o.queue,
		SolveTimeout: o.timeout,
		RetryAfter:   o.retryAfter,
		DoneRing:     o.doneRing,
		SSEKeepAlive: o.sseKeepAlive,
		Registry:     telemetry.NewRegistry(),
		Logger:       log,
	}

	var closers []func() error
	defer func() {
		// Reverse order: the history store flushes before the log/trace
		// files it may still be writing to are closed.
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	if o.solveLog != "" {
		f, err := os.Create(o.solveLog)
		if err != nil {
			return fmt.Errorf("creating solve log: %w", err)
		}
		closers = append(closers, f.Close)
		cfg.Logger = slog.New(slog.NewJSONHandler(f, nil))
	}
	if o.historyDir != "" {
		fsync, err := history.ParseFsync(o.historyFsync)
		if err != nil {
			return err
		}
		st, err := history.Open(history.StoreConfig{
			Dir:              o.historyDir,
			RetentionRecords: o.historyKeep,
			Fsync:            fsync,
			Registry:         cfg.Registry,
			Logger:           cfg.Logger,
		})
		if err != nil {
			return fmt.Errorf("opening history journal: %w", err)
		}
		closers = append(closers, st.Close)
		cfg.History = st
		log.Info("pmaxentd: history journal open", "dir", st.Dir(),
			"retention", o.historyKeep, "fsync", fsync.String(),
			"recovered", st.Retained())
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return fmt.Errorf("creating trace output: %w", err)
		}
		closers = append(closers, f.Close)
		cfg.Tracer = telemetry.NewTracer(telemetry.NewJSONSink(f))
	}

	srv := server.New(cfg)
	if o.pprofAddr != "" {
		// pprof and expvar register on the default mux; expose the
		// server's registry beside them.
		telemetry.PublishExpvar("pmaxentd", srv.Registry())
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				log.Warn("pprof server failed", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", o.addr, err)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	log.Info("pmaxentd: serving", "addr", ln.Addr().String(), "algorithm", alg.String())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain: refuse new solves, let in-flight ones finish, then close
	// the HTTP side. Order matters — Shutdown alone would wait for
	// hung request bodies without stopping new solve admissions.
	log.Info("pmaxentd: signal received, draining", "timeout", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil {
		hs.Close()
		if drainErr == nil {
			drainErr = err
		}
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return fmt.Errorf("drain: %w", drainErr)
	}
	if drainErr != nil {
		log.Warn("pmaxentd: drain timed out, in-flight solves were canceled")
	}
	log.Info("pmaxentd: stopped")
	return nil
}

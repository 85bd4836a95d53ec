// Command pmaxentstat tails a running pmaxentd: it scrapes the daemon's
// /debug/solves table and /metrics exposition on an interval and renders
// a live one-line-per-solve view, top-style, on the terminal.
//
//	pmaxentstat [-addr http://localhost:8080] [-interval 1s] [-once]
//	pmaxentstat -history DIR
//
// Each refresh prints a daemon summary line (requests, in-flight vs
// limit, queue depth, cache hit/miss/evictions, live SSE clients) and
// then one line per solve, live solves first:
//
//	ID            STATE    REQUEST           SCHEME    ITER     GRAD      COMP   DIM         DELTA   ELAPSED
//	0b6e3d…-7     running  9f0c4a1be2d344a1  mondrian  1204     3.2e-05   3/5    4/982       2r/1d   2.41s
//
// The DIM column appears once a solve reports its dual dimension: the
// presolved rows the optimizer ran on over the full variable count. The
// DELTA column appears for
// incremental solves (pmaxentd -delta): components reused verbatim from
// the publication's chained baseline over components re-solved.
//
// -once prints a single snapshot and exits — the scriptable mode CI and
// quick health checks use.
//
// -history DIR switches to offline mode: instead of scraping a live
// daemon, the solve-history journal under DIR is scanned (the same files
// pmaxentd -history-dir writes) and summarized per publication digest —
// solve counts, error/unconverged totals, p50/p95 latency and iteration
// windows, and any convergence regressions the detector would flag.
// Works on a journal copied off a dead host; no daemon required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"privacymaxent/internal/history"
)

func main() {
	var (
		addr       = flag.String("addr", "http://localhost:8080", "base URL of the pmaxentd to watch")
		interval   = flag.Duration("interval", time.Second, "refresh interval")
		once       = flag.Bool("once", false, "print one snapshot and exit")
		historyDir = flag.String("history", "", "offline mode: summarize the solve-history journal in this directory and exit")
	)
	flag.Parse()

	if *historyDir != "" {
		out, err := renderHistory(*historyDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmaxentstat:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		snap, err := scrape(client, strings.TrimRight(*addr, "/"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmaxentstat:", err)
			if *once {
				os.Exit(1)
			}
		} else {
			if !*once {
				// Clear the screen between refreshes (ANSI; harmless when
				// redirected).
				fmt.Print("\x1b[2J\x1b[H")
			}
			fmt.Print(render(snap))
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// solveRow mirrors the wire shape of one GET /debug/solves entry (kept
// local so the command builds without importing internal packages'
// transitive solver dependencies — the wire contract is JSON).
type solveRow struct {
	ID              string  `json:"id"`
	RequestID       string  `json:"request_id"`
	State           string  `json:"state"`
	Scheme          string  `json:"scheme"`
	Variables       int64   `json:"variables"`
	Iterations      int64   `json:"iterations"`
	GradNorm        float64 `json:"grad_norm"`
	ComponentsDone  int64   `json:"components_done"`
	ComponentsTotal int64   `json:"components_total"`
	ReducedDualDim  int64   `json:"reduced_dual_dim"`
	ReusedComps     int64   `json:"reused_components"`
	DirtyComps      int64   `json:"dirty_components"`
	QueueWaitMS     float64 `json:"queue_wait_ms"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// snapshot is one scrape of the daemon.
type snapshot struct {
	Solves  []solveRow
	Metrics map[string]float64
}

// scrape fetches /debug/solves and /metrics.
func scrape(client *http.Client, base string) (*snapshot, error) {
	var body struct {
		Solves []solveRow `json:"solves"`
	}
	if err := getJSON(client, base+"/debug/solves", &body); err != nil {
		return nil, err
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	return &snapshot{Solves: body.Solves, Metrics: parseMetrics(string(raw))}, nil
}

func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// parseMetrics reads the scalar samples out of a Prometheus text
// exposition: "name value" lines, skipping comments and labeled series
// (histogram buckets, build info) — the summary line only needs the
// plain counters and gauges.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valueStr, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsAny(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}

// render formats one snapshot: a summary line, a header, and one line
// per solve (live first, as the daemon orders them).
func render(s *snapshot) string {
	var b strings.Builder
	m := s.Metrics
	sortLiveFirst(s.Solves)
	fmt.Fprintf(&b, "requests %.0f  inflight %.0f/%.0f  queued %.0f/%.0f  cache %.0f/%.0f hit/miss (%.0f evicted)  sse %.0f\n",
		m["pmaxentd_requests_total"],
		m["pmaxentd_inflight"], m["pmaxentd_inflight_limit"],
		m["pmaxentd_queue_depth"], m["pmaxentd_queue_limit"],
		m["pmaxentd_cache_hits_total"], m["pmaxentd_cache_misses_total"],
		m["pmaxentd_cache_evictions_total"],
		m["pmaxentd_sse_clients"])
	if len(s.Solves) == 0 {
		b.WriteString("no solves\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-22s %-8s %-18s %-10s %8s %10s %7s %11s %7s %9s\n",
		"ID", "STATE", "REQUEST", "SCHEME", "ITER", "GRAD", "COMP", "DIM", "DELTA", "ELAPSED")
	for _, r := range s.Solves {
		// Requests without a scheme field are the classic anatomy default.
		schemeCol := r.Scheme
		if schemeCol == "" {
			schemeCol = "-"
		}
		comp := "-"
		if r.ComponentsTotal > 0 {
			comp = fmt.Sprintf("%d/%d", r.ComponentsDone, r.ComponentsTotal)
		}
		// DIM shows the dual rows the optimizer ran on over the full
		// variable count.
		dim := "-"
		if r.ReducedDualDim > 0 {
			dim = fmt.Sprintf("%d/%d", r.ReducedDualDim, r.Variables)
		}
		// DELTA shows an incremental solve's split: components reused
		// verbatim from the chained baseline over components re-solved.
		delta := "-"
		if r.ReusedComps > 0 || r.DirtyComps > 0 {
			delta = fmt.Sprintf("%dr/%dd", r.ReusedComps, r.DirtyComps)
		}
		fmt.Fprintf(&b, "%-22s %-8s %-18s %-10s %8d %10.2e %7s %11s %7s %8.2fs\n",
			clip(r.ID, 22), r.State, clip(r.RequestID, 18), clip(schemeCol, 10),
			r.Iterations, r.GradNorm, comp, dim, delta, r.ElapsedMS/1000)
	}
	return b.String()
}

// clip truncates s to n runes with a trailing ellipsis.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

// renderHistory is the -history offline mode: scan a solve-history
// journal directory, replay it through the same aggregator the daemon
// runs, and print one line per publication digest plus any regressions
// the detector flags across the replayed window.
func renderHistory(dir string) (string, error) {
	agg := history.NewAggregator(history.RegressionConfig{})
	stats, err := history.Scan(dir, agg.Observe)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "journal %s: %d records in %d segments (%d bytes", dir, stats.Records, stats.Segments, stats.Bytes)
	if stats.Torn > 0 {
		fmt.Fprintf(&b, ", %d torn frames skipped", stats.Torn)
	}
	b.WriteString(")\n")
	digests := agg.Digests()
	if len(digests) == 0 {
		b.WriteString("no solves\n")
		return b.String(), nil
	}
	fmt.Fprintf(&b, "%-18s %8s %5s %7s %20s %17s  %s\n",
		"DIGEST", "SOLVES", "ERR", "UNCONV", "SOLVE p50/p95 (ms)", "ITER p50/p95", "LAST")
	for _, d := range digests {
		solve := d.Metrics[history.MetricSolveMS]
		iter := d.Metrics[history.MetricIterations]
		fmt.Fprintf(&b, "%-18s %8d %5d %7d %10.2f/%-9.2f %8.0f/%-8.0f  %s\n",
			clip(d.Digest, 18), d.Records, d.Errors, d.Unconverged,
			recentOrBaseline(solve, 0.50), recentOrBaseline(solve, 0.95),
			recentOrBaseline(iter, 0.50), recentOrBaseline(iter, 0.95),
			d.LastOutcome)
	}
	agg.CheckAll()
	for _, reg := range agg.Regressions() {
		fmt.Fprintf(&b, "REGRESSION %s %s: p50 %.2f -> %.2f (x%.1f over %d baseline samples)\n",
			clip(reg.Digest, 18), reg.Metric, reg.BaselineP50, reg.RecentP50, reg.Ratio, reg.BaselineCount)
	}
	return b.String(), nil
}

// recentOrBaseline prefers the recent window's quantile, falling back to
// the baseline when too few new samples exist (small journals put
// everything in the baseline).
func recentOrBaseline(w history.WindowQuantiles, q float64) float64 {
	pick := func(recent, baseline float64) float64 {
		if w.RecentCount > 0 {
			return recent
		}
		return baseline
	}
	if q >= 0.95 {
		return pick(w.RecentP95, w.BaselineP95)
	}
	return pick(w.RecentP50, w.BaselineP50)
}

// sortLiveFirst orders rows live-states first, oldest first within each
// group — used when composing snapshots from multiple scrapes.
func sortLiveFirst(rows []solveRow) {
	rank := func(state string) int {
		switch state {
		case "running":
			return 0
		case "queued":
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rank(rows[i].State) < rank(rows[j].State)
	})
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/server"
)

// The serve workload runs a pmaxentd daemon built from the checkout as a
// separate process on loopback, with default admission settings and a
// history journal in the run's scratch directory, and drives it with a
// seeded request mix: in every block of 50 requests, 40 quantify cache
// hits over a few warmed publications, 4 quantifies of publications from
// a pool larger than the daemon's prepared cache (so they always miss
// and run core.Prepare), 3 batches and 3 audited quantifies. Batches are
// the slowest kind; at 6% of the mix the 95th percentile falls among
// them rather than in the gap between them and the rest, where it would
// swing with a single request.
const (
	serveRecords  = 1000 // per publication; ~230 KB on the wire, ~500 KB of posterior back
	serveHot      = 3    // warmed publications the hits, batches and audits use
	serveMissPool = 20   // > pmaxentd's default -cache 16; cycled in order, so every use misses
	serveMaxK     = 4    // knowledge sets are Top-(k+,k−) with k± ≤ serveMaxK, not both 0
	serveVariants = 3    // variants per batch
	serveRate     = 10.0 // open-loop arrival rate, requests per second; see runServe
	serveOpen     = 0.7  // share of --seconds for the open loop, cut to whole blocks; the rest is closed loop
	serveSample   = 17   // every serveSample-th request is checked against an offline quantify
	serveTol      = 1e-4 // on scores and P(S|Q) cells; see compareOffline
	serveLateMax  = 50 * time.Millisecond
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindBatch
	kindAudit
)

// blockKinds is one block of the mix, shuffled per block.
var blockKinds = func() []reqKind {
	var ks []reqKind
	for _, c := range []struct {
		kind reqKind
		n    int
	}{{kindHit, 40}, {kindMiss, 4}, {kindBatch, 3}, {kindAudit, 3}} {
		for i := 0; i < c.n; i++ {
			ks = append(ks, c.kind)
		}
	}
	return ks
}()

// publication is one published view and its knowledge sets, as wire
// bytes.
type publication struct {
	published []byte
	knowledge [][]byte // one JSON list per Top-(k+,k−) set
	rules     int      // rules mined from its table
}

// request is one planned request: a kind, a publication and the indices
// of its knowledge sets (serveVariants of them for a batch).
type request struct {
	kind reqKind
	pub  *publication
	sets []int
}

// body renders the request's JSON body.
func (r request) body() []byte {
	var b bytes.Buffer
	b.WriteString(`{"published":`)
	b.Write(r.pub.published)
	if r.kind == kindBatch {
		b.WriteString(`,"variants":[`)
		for i, s := range r.sets {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"knowledge":`)
			b.Write(r.pub.knowledge[s])
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
		return b.Bytes()
	}
	b.WriteString(`,"knowledge":`)
	b.Write(r.pub.knowledge[r.sets[0]])
	b.WriteByte('}')
	return b.Bytes()
}

// path is the request's endpoint.
func (r request) path() string {
	switch r.kind {
	case kindBatch:
		return "/v1/quantify/batch"
	case kindAudit:
		return "/v1/quantify?audit=1"
	}
	return "/v1/quantify"
}

// makePublication generates, publishes and mines one table, and renders
// every Top-(k+,k−) knowledge set.
func makePublication(tr *tracer, tableSeed int64) (*publication, error) {
	id := tr.begin("adult.generate", 0)
	tbl := adult.Generate(adult.Config{Records: serveRecords, Seed: tableSeed})
	tr.end(id)
	id = tr.begin("bucket.anatomize", 0)
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: instanceDiversity, ExemptMostFrequent: true})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("assoc.mine", 0)
	rules, err := assoc.Mine(tbl, assoc.Options{MinSupport: instanceSupport, Sizes: []int{1, 2}, Workers: runtime.GOMAXPROCS(0)})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	p := &publication{rules: len(rules)}
	var buf bytes.Buffer
	if err := bucket.WriteJSON(&buf, d); err != nil {
		return nil, err
	}
	p.published = bytes.TrimSpace(buf.Bytes())
	for kp := 0; kp <= serveMaxK; kp++ {
		for kn := 0; kn <= serveMaxK; kn++ {
			if kp+kn == 0 {
				continue
			}
			top := assoc.TopK(rules, kp, kn)
			ks := make([]constraint.DistributionKnowledge, len(top))
			for i := range top {
				ks[i] = top[i].Knowledge()
			}
			var kb bytes.Buffer
			if err := constraint.WriteKnowledgeJSON(&kb, d.Schema(), ks); err != nil {
				return nil, err
			}
			p.knowledge = append(p.knowledge, bytes.TrimSpace(kb.Bytes()))
		}
	}
	return p, nil
}

// servePlan generates the publications and the seeded request sequence.
type servePlan struct {
	hot, miss []*publication
	reqs      []request
}

func makePlan(tr *tracer, seed int64, n int) (*servePlan, error) {
	p := &servePlan{}
	for i := 0; i < serveHot+serveMissPool; i++ {
		pub, err := makePublication(tr, seed*1000+int64(i)+1)
		if err != nil {
			return nil, err
		}
		if i < serveHot {
			p.hot = append(p.hot, pub)
		} else {
			p.miss = append(p.miss, pub)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sets := len(p.hot[0].knowledge)
	// Hits walk a seeded permutation of every (publication, set) pair, so
	// consecutive hits differ and identical requests rarely overlap.
	hitOrder := rng.Perm(serveHot * sets)
	hits, misses := 0, 0
	for len(p.reqs) < n {
		kinds := append([]reqKind(nil), blockKinds...)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			r := request{kind: k}
			switch k {
			case kindHit:
				h := hitOrder[hits%len(hitOrder)]
				hits++
				r.pub, r.sets = p.hot[h/sets], []int{h % sets}
			case kindMiss:
				r.pub, r.sets = p.miss[misses%serveMissPool], []int{rng.Intn(sets)}
				misses++
			case kindBatch:
				r.pub, r.sets = p.hot[rng.Intn(serveHot)], rng.Perm(sets)[:serveVariants]
			case kindAudit:
				r.pub, r.sets = p.hot[rng.Intn(serveHot)], []int{rng.Intn(sets)}
			}
			p.reqs = append(p.reqs, r)
		}
	}
	return p, nil
}

// wireResponse is the part of a quantify response the load generator
// reads on every request; the offline checks decode sampled responses
// in full.
type wireResponse struct {
	Digest           string             `json:"digest"`
	Cache            string             `json:"cache"`
	KnowledgeApplied int                `json:"knowledge_applied"`
	Solver           server.SolverStats `json:"solver"`
	Audit            json.RawMessage    `json:"audit"`
	TimingsMS        map[string]float64 `json:"timings_ms"`
	ElapsedMS        float64            `json:"elapsed_ms"`
}

// decodeResponse reads a quantify response's fields around the
// posterior without scanning the posterior itself, the bulk of the
// bytes, so the generator takes little CPU from the daemon it shares the
// machine with. The posterior rows hold only attribute names, values and
// probabilities, so the first `],"solver":` after the posterior starts
// is its end. Without those markers it decodes the whole response.
func decodeResponse(b []byte) (wireResponse, error) {
	var wr wireResponse
	i := bytes.Index(b, []byte(`,"posterior":[`))
	j := -1
	if i >= 0 {
		if k := bytes.Index(b[i:], []byte(`],"solver":`)); k >= 0 {
			j = i + k + 1
		}
	}
	if j < 0 {
		return wr, json.Unmarshal(b, &wr)
	}
	if err := json.Unmarshal(append(b[:i:i], '}'), &wr); err != nil {
		return wr, err
	}
	return wr, json.Unmarshal(append([]byte{'{'}, b[j+1:]...), &wr)
}

// served is one completed request.
type served struct {
	req       request
	seq       int
	err       error
	reqBytes  int
	respBytes int
	latency   time.Duration // client side, send to last byte
	done      time.Time     // when the last byte arrived
	elapsedMS float64       // the daemon's own elapsed_ms (batch: whole batch)
	resps     []wireResponse
	audited   bool     // a response carried an audit
	raw       [][]byte // response bytes per variant, kept for sampled requests
	body      []byte   // request bytes, kept for sampled requests
}

// client sends planned requests to the daemon over at most conns
// connections.
type client struct {
	base string
	http *http.Client
	plan *servePlan
	tr   *tracer // non-nil while a traced phase runs
}

func newClient(addr string, conns int, plan *servePlan) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 90 * time.Second}, plan: plan}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send issues request seq of the plan (wrapping around its end); every
// serveSample-th keeps its bytes for the offline checks.
func (c *client) send(seq int) served {
	s := c.do(c.plan.reqs[seq%len(c.plan.reqs)], seq%serveSample == 0)
	s.seq = seq
	return s
}

// do sends one request, recording an http span in a traced phase.
func (c *client) do(r request, keep bool) served {
	s := c.roundTrip(r, keep)
	if c.tr != nil {
		start := s.done.Add(-s.latency)
		id := c.tr.record("http."+kindNames[r.kind], 0, start, s.done)
		for _, wr := range s.resps {
			c.tr.stages(id, start, wireStages(wr.TimingsMS))
		}
	}
	return s
}

var kindNames = [...]string{kindHit: "hit", kindMiss: "miss", kindBatch: "batch", kindAudit: "audit"}

// wireStages converts a response's timings_ms to layer stages, in
// pipeline order.
func wireStages(t map[string]float64) []stage {
	var out []stage
	for _, name := range []string{"prepare", "formulate", "solve", "score", "audit"} {
		if v, ok := t[name]; ok {
			out = append(out, stage{name: stageSpans[name], dur: time.Duration(v * 1e6)})
		}
	}
	return out
}

func (c *client) roundTrip(r request, keep bool) served {
	body := r.body()
	s := served{req: r, reqBytes: len(body)}
	if keep {
		s.body = body
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+r.path(), "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		s.done = time.Now()
		s.latency = s.done.Sub(start)
		return s
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.latency = s.done.Sub(start)
	s.respBytes = len(b)
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s: status %d: %.200s", r.path(), resp.StatusCode, b)
		return s
	}
	raws := [][]byte{b}
	if r.kind == kindBatch {
		var br server.BatchQuantifyResponse
		if err := json.Unmarshal(b, &br); err != nil {
			s.err = fmt.Errorf("decoding batch response: %w", err)
			return s
		}
		s.elapsedMS = br.ElapsedMS
		raws = raws[:0]
		for _, v := range br.Variants {
			if v.Error != nil {
				s.err = fmt.Errorf("batch variant %d: %s (%s)", v.Index, v.Error.Error, v.Error.Kind)
				return s
			}
			raws = append(raws, v.Response)
		}
	}
	for _, raw := range raws {
		wr, err := decodeResponse(raw)
		if err != nil {
			s.err = fmt.Errorf("decoding response: %w", err)
			return s
		}
		s.audited = len(wr.Audit) > 0 && string(wr.Audit) != "null"
		wr.Audit = nil
		s.resps = append(s.resps, wr)
	}
	if r.kind != kindBatch {
		s.elapsedMS = s.resps[0].ElapsedMS
	}
	if keep {
		s.raw = raws
	}
	return s
}

// daemon is a running pmaxentd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{}
}

// startDaemon starts pmaxentd on a free loopback port and waits until it
// is ready.
func startDaemon(bin, historyDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-history-dir", historyDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pmaxentd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// The daemon logs its bound address, then one access line per
		// request; read to the end so it never blocks on a full pipe.
		defer close(d.logDone)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadString('\n')
			if strings.Contains(line, "pmaxentd: serving") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case d.addr = <-addr:
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("pmaxentd did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("pmaxentd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill stops the daemon hard, for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.logDone
}

// stop sends SIGTERM, waits for the drain, and requires exit status 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		<-d.logDone
		if err != nil {
			return fmt.Errorf("pmaxentd exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		<-d.logDone
		return errors.New("pmaxentd did not exit within 60s of SIGTERM")
	}
}

// promSample reads the named unlabelled samples from the daemon's
// Prometheus exposition.
func promSample(addr string, names ...string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

var promNames = []string{
	"pmaxentd_shed_total",
	"pmaxentd_history_dropped_total",
	"pmaxentd_queue_wait_seconds_sum",
	"pmaxentd_queue_wait_seconds_count",
}

func runServe(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	bin := filepath.Join(cfg.build, "pmaxentd")
	conns := runtime.NumCPU()
	blocks := max(1, int(cfg.seconds.Seconds()*serveOpen*serveRate)/len(blockKinds))
	openDur := time.Duration(float64(blocks*len(blockKinds)) / serveRate * float64(time.Second))
	offsets := dueOffsets(serveRate, openDur)

	var (
		plan *servePlan
		d    *daemon
		c    *client
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	// Set-up generates the inputs, starts the daemon and warms the hot
	// publications into its cache. It runs three times; the last daemon
	// serves the measured phases.
	setup, err := timeSetup(3, func() (err error) {
		if d != nil {
			c.close()
			err, d = d.stop(), nil
			if err != nil {
				return err
			}
		}
		if plan, err = makePlan(tr, cfg.seed, 20000); err != nil {
			return err
		}
		hist := filepath.Join(cfg.runDir, "history")
		if err := os.RemoveAll(hist); err != nil {
			return err
		}
		if d, err = startDaemon(bin, hist); err != nil {
			return err
		}
		c = newClient(d.addr, conns, plan)
		for _, p := range plan.hot {
			if s := c.do(request{kind: kindHit, pub: p, sets: []int{0}}, false); s.err != nil {
				return fmt.Errorf("warm-up: %w", s.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup
	before, err := promSample(d.addr, promNames...)
	if err != nil {
		return nil, err
	}

	// Open loop at a fixed rate; latency from each request's due time.
	// Arrivals 100 ms apart outlast a batch's service, so a slower machine
	// lengthens the tail without queueing batches behind each other; at
	// twice the rate the 95th percentile ranged over +60% between runs.
	c.tr = tr
	open := make([]served, len(offsets))
	timings := openLoop(offsets, conns, func(i int) time.Time {
		open[i] = c.send(i)
		return open[i].done
	})

	// Closed loop: one caller sending back to back, so the daemon is never
	// idle. With NumCPU callers the daemon and the generator saturate
	// every CPU, and on a 2-vCPU VM throughput then swung by 0.23 of its
	// median between runs, twice the open loop's spread. A traced run
	// spends half of it untraced, for the tracing overhead.
	var (
		mu     sync.Mutex
		closed []served
		next   = len(offsets)
	)
	closedPhase := func(d time.Duration, ptr *tracer) float64 {
		c.tr = ptr
		base := next
		n, elapsed := closedLoop(d, 1, func(i int) {
			s := c.send(base + i)
			mu.Lock()
			closed = append(closed, s)
			mu.Unlock()
		})
		next += n
		return float64(n) / elapsed.Seconds()
	}
	closedDur := max(cfg.seconds-openDur, cfg.seconds/3)
	var rps, rpsTraced float64
	if tr == nil {
		rps = closedPhase(closedDur, nil)
	} else {
		rps = closedPhase(closedDur/2, nil)
		rpsTraced = closedPhase(closedDur/2, tr)
	}
	c.tr = nil

	after, err := promSample(d.addr, promNames...)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	c.close()
	stopErr := d.stop()
	d = nil
	if stopErr != nil {
		out.fail("%v", stopErr)
	}

	all := append(append([]served(nil), open...), closed...)
	checkServe(ctx, out, all)

	var lat, late []float64
	for _, t := range timings {
		lat = append(lat, ms(t.latency()))
		late = append(late, ms(t.late()))
	}
	latP95 := percentile(late, 95)
	if latP95 > ms(serveLateMax) {
		out.flags = append(out.flags, fmt.Sprintf("load generator fell behind: lateness p95 %.1f ms > %v", latP95, serveLateMax))
	}
	unconverged := 0
	for _, s := range all {
		for _, r := range s.resps {
			if !r.Solver.Converged {
				unconverged++
			}
		}
	}
	out.metrics["unconverged_points"] = float64(unconverged)
	if tr == nil {
		out.metrics["latency_p50_ms"] = percentile(lat, 50)
		out.metrics["latency_p95_ms"] = percentile(lat, 95)
		out.metrics["throughput_rps"] = rps
		out.metrics["wall_s"] = 100 / rps // per 100 closed-loop requests
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}

	serverStages(tr, all)
	self := tr.selfTimes()
	setupLayers(out, self, plan.hot[0].rules)
	out.metrics["constraint.formulate_ms"] = self["constraint.formulate"].meanMS()
	out.metrics["maxent.solve_ms"] = self["maxent.solve"].meanMS()
	out.metrics["metrics.score_ms"] = self["metrics.score"].meanMS()
	out.metrics["audit.build_ms"] = self["audit.build"].meanMS()
	out.metrics["server.envelope_decode_ms"] = self["server.envelope_decode"].meanMS()
	out.metrics["server.read_json_ms"] = self["server.read_json"].meanMS()
	out.metrics["server.digest_ms"] = self["server.digest"].meanMS()
	out.metrics["server.encode_ms"] = self["server.encode"].meanMS()
	wireLayers(out, open)
	out.metrics["server.queue_wait_ms"] = 1000 * ratio(
		after["pmaxentd_queue_wait_seconds_sum"]-before["pmaxentd_queue_wait_seconds_sum"],
		after["pmaxentd_queue_wait_seconds_count"]-before["pmaxentd_queue_wait_seconds_count"])
	out.metrics["server.shed"] = after["pmaxentd_shed_total"] - before["pmaxentd_shed_total"]
	out.metrics["history.dropped"] = after["pmaxentd_history_dropped_total"]
	out.metrics["loadgen.late_p95_ms"] = latP95
	out.metrics["trace.overhead_pct"] = 100 * (rps/rpsTraced - 1)
	return out, nil
}

// wireLayers fills the solver counters and wire sizes of the traced
// open-loop requests.
func wireLayers(out *outcome, reqs []served) {
	var n, iters, evals, comps, dims, rows, capped, solveMS, hits, misses float64
	var wire, reqKB, respKB []float64
	for _, s := range reqs {
		if s.err != nil {
			continue
		}
		wire = append(wire, ms(s.latency)-s.elapsedMS)
		reqKB = append(reqKB, float64(s.reqBytes)/1024)
		respKB = append(respKB, float64(s.respBytes)/1024)
		for _, r := range s.resps {
			n++
			iters += float64(r.Solver.Iterations)
			evals += float64(r.Solver.Evaluations)
			comps += float64(r.Solver.Components)
			dims += float64(r.Solver.ReducedDualDim)
			rows += float64(r.KnowledgeApplied)
			solveMS += r.TimingsMS["solve"]
			if !r.Solver.Converged {
				capped++
			}
			switch r.Cache {
			case "hit":
				hits++
			case "miss":
				misses++
			}
		}
	}
	out.metrics["maxent.iterations"] = ratio(iters, n)
	out.metrics["maxent.evaluations"] = ratio(evals, n)
	out.metrics["maxent.ns_per_eval"] = ratio(solveMS*1e6, evals)
	out.metrics["maxent.components"] = ratio(comps, n)
	out.metrics["maxent.reduced_dual_dim"] = ratio(dims, n)
	out.metrics["maxent.capped"] = capped
	out.metrics["constraint.knowledge_rows"] = ratio(rows, n)
	out.metrics["server.wire_ms"] = mean(wire)
	out.metrics["server.request_kb"] = mean(reqKB)
	out.metrics["server.response_kb"] = mean(respKB)
	out.metrics["server.cache_hit_ratio"] = ratio(hits, hits+misses)
}

// serverStages times, in this process, the daemon's per-request wire
// stages on the workload's own bytes: envelope decode, reading the
// published view, digesting it, and encoding the response.
func serverStages(tr *tracer, reqs []served) {
	for _, s := range reqs {
		if s.body == nil || s.err != nil || s.req.kind != kindHit {
			continue
		}
		id := tr.begin("server.envelope_decode", 0)
		var req server.QuantifyRequest
		dec := json.NewDecoder(bytes.NewReader(s.body))
		dec.DisallowUnknownFields() // as the daemon decodes it
		err := dec.Decode(&req)
		tr.end(id)
		if err != nil {
			continue
		}
		id = tr.begin("server.read_json", 0)
		pub, err := bucket.ReadJSON(bytes.NewReader(req.Published))
		tr.end(id)
		if err != nil {
			continue
		}
		id = tr.begin("server.digest", 0)
		server.DigestScheme(pub, nil)
		tr.end(id)
		var resp server.QuantifyResponse
		if json.Unmarshal(s.raw[0], &resp) != nil {
			continue
		}
		id = tr.begin("server.encode", 0)
		json.Marshal(resp)
		tr.end(id)
	}
}

// checkServe counts failed requests, checks each response's cache state
// against its kind, and compares the sampled responses with an offline
// quantify of the same view and knowledge.
func checkServe(ctx context.Context, out *outcome, reqs []served) {
	q := core.New(core.Config{})
	prepared := map[string]*core.Prepared{}
	for _, s := range reqs {
		out.attempted++
		if err := checkServed(ctx, q, prepared, s); err != nil {
			out.failed++
			out.fail("request %d (%s): %v", s.seq, kindNames[s.req.kind], err)
		}
	}
}

func checkServed(ctx context.Context, q *core.Quantifier, prepared map[string]*core.Prepared, s served) error {
	if s.err != nil {
		return s.err
	}
	wantCache := "hit"
	if s.req.kind == kindMiss {
		wantCache = "miss"
	}
	for _, r := range s.resps {
		if r.Cache != wantCache {
			return fmt.Errorf("cache %q, want %q", r.Cache, wantCache)
		}
	}
	if s.req.kind == kindAudit && !s.audited {
		return errors.New("audited request returned no audit")
	}
	for i, raw := range s.raw {
		// A capped solve's endpoint depends on its warm start, which the
		// offline solve cannot reproduce: counted, not compared.
		if !s.resps[i].Solver.Converged {
			continue
		}
		if err := compareOffline(ctx, q, prepared, s.req.pub, s.req.pub.knowledge[s.req.sets[i]], raw); err != nil {
			return err
		}
	}
	return nil
}

// compareOffline quantifies the view and knowledge with a local
// core.Prepared and compares the deterministic response fields. Scores
// and P(S|Q) cells are compared within serveTol: the daemon warm-starts
// from earlier solves, and two solves that both stop at the default
// gradient tolerance differ by up to ~1e-5 in a P(S|Q) cell once a
// small P(q) divides the residual.
func compareOffline(ctx context.Context, q *core.Quantifier, prepared map[string]*core.Prepared, p *publication, knowledge, raw []byte) error {
	pub, err := bucket.ReadJSON(bytes.NewReader(p.published))
	if err != nil {
		return err
	}
	digest, err := server.DigestScheme(pub, nil)
	if err != nil {
		return err
	}
	prep := prepared[digest]
	if prep == nil {
		if prep, err = q.Prepare(ctx, pub); err != nil {
			return err
		}
		prepared[digest] = prep
	}
	ks, err := constraint.ParseKnowledgeJSON(bytes.NewReader(knowledge), pub.Schema())
	if err != nil {
		return err
	}
	rep, err := prep.QuantifyWithOptions(ctx, core.QuantifyOptions{Knowledge: ks})
	if err != nil {
		return fmt.Errorf("offline quantify: %w", err)
	}
	if !rep.Solution.Stats.Converged {
		return nil // nothing converged to compare against
	}
	var got server.QuantifyResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}
	switch {
	case got.Digest != digest:
		return fmt.Errorf("digest %s, offline %s", got.Digest, digest)
	case got.KnowledgeApplied != len(rep.Knowledge):
		return fmt.Errorf("knowledge_applied %d, offline %d", got.KnowledgeApplied, len(rep.Knowledge))
	case !(math.Abs(got.MaxDisclosure-rep.MaxDisclosure) <= serveTol):
		return fmt.Errorf("max_disclosure %g, offline %g", got.MaxDisclosure, rep.MaxDisclosure)
	case !(math.Abs(got.PosteriorEntropyBits-rep.PosteriorEntropy) <= serveTol):
		return fmt.Errorf("posterior_entropy_bits %g, offline %g", got.PosteriorEntropyBits, rep.PosteriorEntropy)
	}
	post, schema := rep.Posterior, pub.Schema()
	u := post.Universe()
	if len(got.Posterior) != u.Len() {
		return fmt.Errorf("posterior has %d rows, offline %d", len(got.Posterior), u.Len())
	}
	qi := schema.QIIndices()
	for qid, row := range got.Posterior {
		codes := u.Codes(qid)
		for i, pos := range qi {
			if a := schema.Attr(pos); row.QI[a.Name] != a.Value(codes[i]) {
				return fmt.Errorf("posterior row %d: %s=%q, offline %q", qid, a.Name, row.QI[a.Name], a.Value(codes[i]))
			}
		}
		for sa := 0; sa < post.NumSA(); sa++ {
			v, ok := row.P[schema.SA().Value(sa)]
			if !ok || !(math.Abs(v-post.P(qid, sa)) <= serveTol) {
				return fmt.Errorf("posterior row %d, %s: %g, offline %g", qid, schema.SA().Value(sa), v, post.P(qid, sa))
			}
		}
	}
	return nil
}

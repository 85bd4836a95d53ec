package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
)

// paperPublished returns the paper's Figure 1 published view and its
// wire-format JSON.
func paperPublished(t *testing.T) (*bucket.Bucketized, []byte) {
	t.Helper()
	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bucket.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes()
}

const paperKnowledge = `[{"if": {"Gender": "male"}, "then": "Breast Cancer", "p": 0}]`

func postQuantify(t *testing.T, ts *httptest.Server, path string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func quantifyBody(pub []byte, knowledge string) string {
	b := fmt.Sprintf(`{"published": %s`, pub)
	if knowledge != "" {
		b += fmt.Sprintf(`, "knowledge": %s`, knowledge)
	}
	return b + "}"
}

// stripVolatile zeroes the wall-clock fields so deterministic content can
// be byte-compared.
func stripVolatile(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp QuantifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, raw)
	}
	resp.TimingsMS = nil
	resp.ElapsedMS = 0
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// offlineReport quantifies knowledge over d with the library alone:
// prepare the view, then solve — the path every served response must
// reproduce.
func offlineReport(t testing.TB, q *core.Quantifier, d *bucket.Bucketized, knowledge []constraint.DistributionKnowledge) *core.Report {
	t.Helper()
	p, err := q.Prepare(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.QuantifyWithOptions(context.Background(), core.QuantifyOptions{Knowledge: knowledge})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestQuantifyParityWithLibrary: the served response must be
// byte-identical (volatile timing fields aside) to what the offline
// library computes on the same D′ and knowledge — the server adds
// caching and scheduling, never different numbers. The server is fresh,
// so the request is a cold cache miss with no warm-start seed, exactly
// matching the offline solve.
func TestQuantifyParityWithLibrary(t *testing.T) {
	d, pubJSON := paperPublished(t)

	// Offline: the library pipeline plus the shared response builder.
	q := core.New(core.Config{})
	knowledge, err := constraint.ParseKnowledgeJSON(strings.NewReader(paperKnowledge), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rep := offlineReport(t, q, d, knowledge)
	digest, err := DigestPublished(d)
	if err != nil {
		t.Fatal(err)
	}
	offline := buildResponse(digest, "miss", 0, d.Schema(), rep, q.Config().Solve.Algorithm)
	offlineJSON, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}

	// Served.
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, paperKnowledge))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got, want := stripVolatile(t, body), stripVolatile(t, offlineJSON); !bytes.Equal(got, want) {
		t.Fatalf("served response diverges from library:\nserved:  %s\nlibrary: %s", got, want)
	}
}

// TestQuantifyAuditParity: ?audit=1 attaches the same SolveAudit —
// residuals, duals, trajectory verdicts — the offline audited pipeline
// produces.
func TestQuantifyAuditParity(t *testing.T) {
	d, pubJSON := paperPublished(t)

	q := core.New(core.Config{Audit: &audit.Options{}})
	knowledge, err := constraint.ParseKnowledgeJSON(strings.NewReader(paperKnowledge), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rep := offlineReport(t, q, d, knowledge)
	if rep.Audit == nil {
		t.Fatal("offline audited run produced no audit")
	}
	offlineAudit, err := json.Marshal(rep.Audit)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postQuantify(t, ts, "/v1/quantify?audit=1", quantifyBody(pubJSON, paperKnowledge))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var served QuantifyResponse
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if served.Audit == nil {
		t.Fatal("?audit=1 response carries no audit")
	}
	// The served audit is stamped with the request's ID — provenance, not
	// solve output. It must match the X-Request-Id response header, and
	// clearing it must leave the audit byte-identical to the offline one
	// (whose request_id is empty: no request asked for it).
	if served.Audit.RequestID == "" {
		t.Fatal("served audit carries no request_id")
	}
	if rid := resp.Header.Get("X-Request-Id"); served.Audit.RequestID != rid {
		t.Fatalf("audit request_id = %q, response header X-Request-Id = %q", served.Audit.RequestID, rid)
	}
	served.Audit.RequestID = ""
	servedAudit, err := json.Marshal(served.Audit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedAudit, offlineAudit) {
		t.Fatalf("served audit diverges:\nserved:  %s\nlibrary: %s", servedAudit, offlineAudit)
	}
}

// TestQuantifyCacheHit: a repeat request on the same D′ reuses the
// prepared invariant system — the response says "hit", the "prepare"
// stage is absent from its timings, and the hit counter moves.
func TestQuantifyCacheHit(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := quantifyBody(pubJSON, paperKnowledge)
	resp1, raw1 := postQuantify(t, ts, "/v1/quantify", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d: %s", resp1.StatusCode, raw1)
	}
	var r1 QuantifyResponse
	if err := json.Unmarshal(raw1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", r1.Cache)
	}
	if _, ok := r1.TimingsMS[core.StagePrepare]; !ok {
		t.Fatalf("cache miss carries no %q stage: %v", core.StagePrepare, r1.TimingsMS)
	}

	resp2, raw2 := postQuantify(t, ts, "/v1/quantify", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d: %s", resp2.StatusCode, raw2)
	}
	var r2 QuantifyResponse
	if err := json.Unmarshal(raw2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", r2.Cache)
	}
	if _, ok := r2.TimingsMS[core.StagePrepare]; ok {
		t.Fatalf("cache hit still carries the %q stage: %v", core.StagePrepare, r2.TimingsMS)
	}
	if got := srv.Registry().Counter("pmaxentd_cache_hits_total").Value(); got != 1 {
		t.Fatalf("cache hit counter = %d, want 1", got)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("digest changed across requests: %q vs %q", r1.Digest, r2.Digest)
	}
	// Hit-or-miss must not change the numbers: posterior and scores agree.
	if r1.MaxDisclosure != r2.MaxDisclosure || r1.PosteriorEntropyBits != r2.PosteriorEntropyBits {
		t.Fatalf("scores diverge across cache states: (%g, %g) vs (%g, %g)",
			r1.MaxDisclosure, r1.PosteriorEntropyBits, r2.MaxDisclosure, r2.PosteriorEntropyBits)
	}
}

// TestWarmSeedKeepsAnswer: the daemon seeds every solve with the duals
// of its view's last converged solve, whatever knowledge that solve had.
// On this 1,000-record Adult view, Top-(1,2)'s duals start a Top-(1,0)
// solve near overflow; the repeated Top-(1,0) request must still return
// the first response's posterior.
func TestWarmSeedKeepsAnswer(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 1000, Seed: 21003})
	d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 5, ExemptMostFrequent: true})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := assoc.Mine(tbl, assoc.Options{MinSupport: 3, Sizes: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var pub bytes.Buffer
	if err := bucket.WriteJSON(&pub, d); err != nil {
		t.Fatal(err)
	}
	topK := func(kPos, kNeg int) string {
		top := assoc.TopK(rules, kPos, kNeg)
		ks := make([]constraint.DistributionKnowledge, len(top))
		for i := range top {
			ks[i] = top[i].Knowledge()
		}
		var b bytes.Buffer
		if err := constraint.WriteKnowledgeJSON(&b, d.Schema(), ks); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	quantify := func(knowledge string) QuantifyResponse {
		t.Helper()
		resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pub.Bytes(), knowledge))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		var r QuantifyResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	target := topK(1, 0)
	first := quantify(target)
	quantify(topK(1, 2))
	again := quantify(target)
	if !first.Solver.Converged || !again.Solver.Converged {
		t.Fatalf("converged: first %v, after another set %v (%+v)", first.Solver.Converged, again.Solver.Converged, again.Solver)
	}
	if len(again.Posterior) != len(first.Posterior) {
		t.Fatalf("posterior rows: %d, want %d", len(again.Posterior), len(first.Posterior))
	}
	for i, row := range first.Posterior {
		for s, p := range row.P {
			if diff := math.Abs(again.Posterior[i].P[s] - p); diff > 1e-9 {
				t.Fatalf("row %d P(%s) = %v after another set, %v before", i, s, again.Posterior[i].P[s], p)
			}
		}
	}
}

// TestQuantifyCoalescing: N concurrent identical requests share one
// solve. The leader is parked on the solve hook until the coalesced
// counter shows every follower joined, so the assertion cannot race.
func TestQuantifyCoalescing(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv.solveHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const n = 8
	body := quantifyBody(pubJSON, paperKnowledge)
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postQuantify(t, ts, "/v1/quantify", body)
			statuses[i] = resp.StatusCode
			bodies[i] = raw
		}(i)
	}

	<-entered // leader holds the solve slot
	deadline := time.Now().Add(10 * time.Second)
	for srv.Registry().Counter("pmaxentd_coalesced_total").Value() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", srv.Registry().Counter("pmaxentd_coalesced_total").Value(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got different bytes than request 0", i)
		}
	}
	if got := srv.Registry().Counter("pmaxent_quantify_total").Value(); got != 1 {
		t.Fatalf("pipeline ran %d solves for %d coalesced requests, want 1", got, n)
	}
}

// TestLoadShed: with one slot and no queue, a second distinct request is
// shed immediately with 429 and a Retry-After hint, and the first still
// completes cleanly.
func TestLoadShed(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{MaxInFlight: 1, MaxQueue: -1}) // negative = no queue
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.solveHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	first := make(chan result, 1)
	go func() {
		resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, ""))
		first <- result{resp.StatusCode, raw}
	}()
	<-entered // the slot and the admission token are both held

	resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, paperKnowledge))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != "overloaded" {
		t.Fatalf("shed body = %s (err %v), want kind overloaded", raw, err)
	}
	if got := srv.Registry().Counter("pmaxentd_shed_total").Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(release)
	r := <-first
	if r.status != http.StatusOK {
		t.Fatalf("held request finished with %d: %s", r.status, r.body)
	}
}

// TestDrain: draining refuses new work with 503, flips readiness, lets
// the in-flight solve finish (converged, no interruption), and returns.
func TestDrain(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.solveHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	first := make(chan result, 1)
	go func() {
		resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, paperKnowledge))
		first <- result{resp.StatusCode, raw}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	// Drain flips the flag synchronously before waiting, but give the
	// goroutine a moment to be scheduled at all.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status = %d, want 503: %s", resp.StatusCode, raw)
	}
	ready, rawReady := postGet(t, ts, "/readyz")
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503: %s", ready.StatusCode, rawReady)
	}
	health, _ := postGet(t, ts, "/healthz")
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", health.StatusCode)
	}

	close(release)
	r := <-first
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain finished with %d: %s", r.status, r.body)
	}
	var qr QuantifyResponse
	if err := json.Unmarshal(r.body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Solver.Converged {
		t.Fatal("drained solve did not converge — drain interrupted it")
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain returned %v", err)
	}
}

func postGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestErrorMapping covers the HTTP side of the error taxonomy.
func TestErrorMapping(t *testing.T) {
	_, pubJSON := paperPublished(t)
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		kind   string
	}{
		{"malformed json", "/v1/quantify", `{"published": `, http.StatusBadRequest, "invalid_request"},
		{"unknown field", "/v1/quantify", `{"publishedd": {}}`, http.StatusBadRequest, "invalid_request"},
		{"missing published", "/v1/quantify", `{}`, http.StatusBadRequest, "invalid_request"},
		{"bad published", "/v1/quantify", `{"published": {"qi": 7}}`, http.StatusBadRequest, "invalid_request"},
		{"bad knowledge", "/v1/quantify",
			quantifyBody(pubJSON, `[{"if": {"Gender": "male"}, "then": "No Such Disease", "p": 0}]`),
			http.StatusBadRequest, "invalid_request"},
		{"audited vague", "/v1/quantify?audit=1",
			`{"published": ` + string(pubJSON) + `, "eps": 0.05}`,
			http.StatusBadRequest, "invalid_request"},
		// Pinning every disease to probability zero for males zeroes all
		// male terms, yet males exist in the published data — the bucket
		// invariants reduce to 0 = positive and presolve reports the
		// contradiction.
		{"infeasible", "/v1/quantify",
			quantifyBody(pubJSON, `[
				{"if": {"Gender": "male"}, "then": "Breast Cancer", "p": 0},
				{"if": {"Gender": "male"}, "then": "Flu", "p": 0},
				{"if": {"Gender": "male"}, "then": "Pneumonia", "p": 0},
				{"if": {"Gender": "male"}, "then": "HIV", "p": 0},
				{"if": {"Gender": "male"}, "then": "Lung Cancer", "p": 0}]`),
			http.StatusUnprocessableEntity, "infeasible"},
		{"mine missing csv", "/v1/rules/mine", `{"sa": "Disease"}`, http.StatusBadRequest, "invalid_request"},
		// assoc's own option check decides these; a repeated size would
		// otherwise mine every subset of that size twice.
		{"mine size out of range", "/v1/rules/mine", mineBody(`"sizes": [5]`), http.StatusBadRequest, "invalid_request"},
		{"mine repeated size", "/v1/rules/mine", mineBody(`"sizes": [1, 1]`), http.StatusBadRequest, "invalid_request"},
		{"mine negative k", "/v1/rules/mine", mineBody(`"k_pos": 5, "k_neg": -10`), http.StatusBadRequest, "invalid_request"},
		// The identifier column leaves the SA as the only other column:
		// the client's table has nothing to condition a rule on.
		{"mine no quasi-identifier", "/v1/rules/mine",
			`{"csv": "name,disease\na,flu\nb,hiv\n", "sa": "disease", "id": ["name"]}`,
			http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postQuantify(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error body is not ErrorResponse: %v\n%s", err, raw)
			}
			if e.Kind != tc.kind {
				t.Fatalf("kind = %q, want %q (error: %s)", e.Kind, tc.kind, e.Error)
			}
		})
	}
}

// TestDeadline: a client timeout smaller than the work yields 504 while
// the detached solve finishes on its own.
func TestDeadline(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	srv.solveHook = func() { time.Sleep(300 * time.Millisecond) }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"published": ` + string(pubJSON) + `, "timeout_ms": 50}`
	resp, raw := postQuantify(t, ts, "/v1/quantify", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Kind != "deadline" {
		t.Fatalf("deadline body = %s (err %v)", raw, err)
	}
}

// TestVagueQuantify: eps > 0 runs the inequality variant and bypasses
// the prepared cache.
func TestVagueQuantify(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"published": ` + string(pubJSON) + `, "knowledge": ` + paperKnowledge + `, "eps": 0.05}`
	resp, raw := postQuantify(t, ts, "/v1/quantify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var r QuantifyResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cache != "bypass" {
		t.Fatalf("vague solve cache = %q, want bypass", r.Cache)
	}
	if r.Eps != 0.05 {
		t.Fatalf("eps echoed as %g", r.Eps)
	}
}

// mineCSV is a 6-record table on two QI attributes. At subset size 1 it
// has 12 rules of support at least 1 and 4 of support at least 3.
const mineCSV = "age,sex,disease\n30,m,flu\n30,m,flu\n30,m,flu\n40,f,hiv\n40,f,hiv\n40,f,flu\n"

// mineBody is a /v1/rules/mine body over mineCSV with extra fields.
func mineBody(fields string) string {
	b, _ := json.Marshal(mineCSV) // a string always marshals
	return `{"csv": ` + string(b) + `, "sa": "disease", ` + fields + `}`
}

// TestMineMinSupportDefault: an omitted or non-positive min_support mines
// at the pipeline's threshold, 3, exactly as an explicit 3 does.
func TestMineMinSupportDefault(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	for _, tc := range []struct {
		fields string
		mined  int
	}{
		{`"sizes": [1]`, 4},
		{`"sizes": [1], "min_support": 0`, 4},
		{`"sizes": [1], "min_support": 3`, 4},
		{`"sizes": [1], "min_support": 1`, 12},
	} {
		resp, raw := postQuantify(t, ts, "/v1/rules/mine", mineBody(tc.fields))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", tc.fields, resp.StatusCode, raw)
		}
		var r MineResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Mined != tc.mined {
			t.Fatalf("%s: mined %d rules, want %d", tc.fields, r.Mined, tc.mined)
		}
	}
}

// TestMineEndpoint: mining over inline CSV returns named rules matching
// the paper's example (Gender=male ⇒ ¬Breast Cancer among them).
func TestMineEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tbl := dataset.PaperExample()
	var csv strings.Builder
	csv.WriteString("Name,Gender,Degree,Disease\n")
	for i := 0; i < tbl.Len(); i++ {
		sc := tbl.Schema()
		for j := 0; j < sc.Len(); j++ {
			if j > 0 {
				csv.WriteByte(',')
			}
			csv.WriteString(tbl.Value(i, j))
		}
		csv.WriteByte('\n')
	}
	reqBody, err := json.Marshal(&MineRequest{
		CSV: csv.String(), SA: "Disease", ID: []string{"Name"}, MinSupport: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postQuantify(t, ts, "/v1/rules/mine", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var r MineResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	if r.Mined == 0 || r.Returned != len(r.Rules) {
		t.Fatalf("mine response inconsistent: %+v", r)
	}
	found := false
	for _, ru := range r.Rules {
		if !ru.Positive && ru.If["Gender"] == "male" && ru.Then == "Breast Cancer" {
			found = true
			if ru.P != 0 {
				t.Fatalf("male ⇒ ¬Breast Cancer pins P = %g, want 0", ru.P)
			}
		}
	}
	if !found {
		t.Fatalf("paper's Gender=male ⇒ ¬Breast Cancer rule not mined: %s", raw)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/scheme"
	"privacymaxent/internal/telemetry"
)

// quantifyBodyScheme is quantifyBody plus a scheme declaration.
func quantifyBodyScheme(pub []byte, knowledge, schemeJSON string) string {
	b := fmt.Sprintf(`{"published": %s`, pub)
	if knowledge != "" {
		b += fmt.Sprintf(`, "knowledge": %s`, knowledge)
	}
	if schemeJSON != "" {
		b += fmt.Sprintf(`, "scheme": %s`, schemeJSON)
	}
	return b + "}"
}

// TestQuantifyMondrianSchemeParity: a mondrian-declared request must be
// byte-identical (volatile fields aside) to the offline
// PrepareScheme→QuantifyWithOptions pipeline on the same view — the scheme rides
// the same parity contract the classic path has.
func TestQuantifyMondrianSchemeParity(t *testing.T) {
	d, pubJSON := paperPublished(t)

	sch, err := scheme.Parse("mondrian", json.RawMessage(`{"k": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	q := core.New(core.Config{})
	knowledge, err := constraint.ParseKnowledgeJSON(strings.NewReader(paperKnowledge), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := q.PrepareScheme(context.Background(), d, sch)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.QuantifyWithOptions(context.Background(), core.QuantifyOptions{Knowledge: knowledge})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := DigestScheme(d, sch)
	if err != nil {
		t.Fatal(err)
	}
	offline := buildResponse(digest, "miss", 0, d.Schema(), rep, q.Config().Solve.Algorithm)
	canon, err := scheme.CanonicalParams(sch)
	if err != nil {
		t.Fatal(err)
	}
	offline.Scheme = &SchemeSpec{Name: sch.Name(), Params: canon}
	offlineJSON, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postQuantify(t, ts, "/v1/quantify",
		quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "mondrian", "params": {"k": 2}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got, want := stripVolatile(t, body), stripVolatile(t, offlineJSON); !bytes.Equal(got, want) {
		t.Fatalf("served response diverges from library:\nserved:  %s\nlibrary: %s", got, want)
	}
}

// TestQuantifyRandomizedResponseParity: same contract for the boxed
// scheme — the served inequality-dual solve must match the offline one.
// The posted view is an actual randomized-response release (RR requires
// a QI-grouped view, one distinct QI tuple per bucket). No knowledge:
// exact statements mined elsewhere can contradict a perturbed view's
// structural support (see DESIGN §13).
func TestQuantifyRandomizedResponseParity(t *testing.T) {
	sch, err := scheme.Parse("randomized_response", json.RawMessage(`{"rho": 0.8, "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := sch.Publish(dataset.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bucket.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	pubJSON := buf.Bytes()

	q := core.New(core.Config{})
	p, err := q.PrepareScheme(context.Background(), d, sch)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Boxed() {
		t.Fatal("randomized_response prepared without observation boxes")
	}
	rep, err := p.QuantifyWithOptions(context.Background(), core.QuantifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := DigestScheme(d, sch)
	if err != nil {
		t.Fatal(err)
	}
	offline := buildResponse(digest, "miss", 0, d.Schema(), rep, q.Config().Solve.Algorithm)
	canon, err := scheme.CanonicalParams(sch)
	if err != nil {
		t.Fatal(err)
	}
	offline.Scheme = &SchemeSpec{Name: sch.Name(), Params: canon}
	offlineJSON, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, body := postQuantify(t, ts, "/v1/quantify",
		quantifyBodyScheme(pubJSON, "", `{"name": "randomized_response", "params": {"rho": 0.8, "seed": 7}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got, want := stripVolatile(t, body), stripVolatile(t, offlineJSON); !bytes.Equal(got, want) {
		t.Fatalf("served response diverges from library:\nserved:  %s\nlibrary: %s", got, want)
	}
}

// TestSchemeDigestSeparation: the digest binds the scheme. An explicit
// anatomy declaration shares the absent default's digest and prepared
// cache entry (the invariant system is identical), while mondrian over
// the same bytes digests — and caches — separately.
func TestSchemeDigestSeparation(t *testing.T) {
	_, pubJSON := paperPublished(t)
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	decode := func(body []byte) QuantifyResponse {
		var r QuantifyResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("decoding: %v\n%s", err, body)
		}
		return r
	}
	resp, body := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, paperKnowledge))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("absent: status = %d, body %s", resp.StatusCode, body)
	}
	absent := decode(body)
	if absent.Cache != "miss" {
		t.Fatalf("absent cache = %q, want miss", absent.Cache)
	}
	if absent.Scheme != nil {
		t.Fatalf("absent request echoed scheme %+v", absent.Scheme)
	}
	if bytes.Contains(body, []byte(`"scheme"`)) {
		t.Fatalf("absent-scheme response body carries a scheme key:\n%s", body)
	}

	resp, body = postQuantify(t, ts, "/v1/quantify",
		quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "anatomy"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anatomy: status = %d, body %s", resp.StatusCode, body)
	}
	anatomy := decode(body)
	if anatomy.Digest != absent.Digest {
		t.Fatalf("explicit anatomy digest %s != absent digest %s", anatomy.Digest, absent.Digest)
	}
	if anatomy.Cache != "hit" {
		t.Fatalf("explicit anatomy cache = %q, want hit (shares the default's prepared entry)", anatomy.Cache)
	}
	if anatomy.Scheme == nil || anatomy.Scheme.Name != "anatomy" {
		t.Fatalf("explicit anatomy echo = %+v", anatomy.Scheme)
	}

	resp, body = postQuantify(t, ts, "/v1/quantify",
		quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "mondrian", "params": {"k": 3}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mondrian: status = %d, body %s", resp.StatusCode, body)
	}
	mondrian := decode(body)
	if mondrian.Digest == absent.Digest {
		t.Fatalf("mondrian digest %s conflates with anatomy", mondrian.Digest)
	}
	if mondrian.Cache != "miss" {
		t.Fatalf("mondrian cache = %q, want miss (own prepared entry)", mondrian.Cache)
	}

	// Parameters separate too: a different k is a different digest.
	resp, body = postQuantify(t, ts, "/v1/quantify",
		quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "mondrian", "params": {"k": 4}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mondrian k=4: status = %d, body %s", resp.StatusCode, body)
	}
	if d := decode(body).Digest; d == mondrian.Digest {
		t.Fatalf("mondrian k=3 and k=4 share digest %s", d)
	}
}

// TestSchemeBadRequest: unknown names and malformed parameters are 400s
// with kind "invalid_request" and the supported-scheme list attached.
func TestSchemeBadRequest(t *testing.T) {
	_, pubJSON := paperPublished(t)
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		scheme string
		want   string
	}{
		{"unknown name", `{"name": "bucketize"}`, `unknown scheme "bucketize"`},
		{"missing name", `{"params": {"l": 2}}`, `missing "name"`},
		{"unknown param", `{"name": "anatomy", "params": {"diversity": 3}}`, "unknown field"},
		{"wrong param type", `{"name": "mondrian", "params": {"k": "five"}}`, "cannot unmarshal"},
		{"rho out of range", `{"name": "randomized_response", "params": {"rho": 2}}`, "outside [0,1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuantify(t, ts, "/v1/quantify", quantifyBodyScheme(pubJSON, "", tc.scheme))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("decoding error body: %v\n%s", err, body)
			}
			if e.Kind != "invalid_request" {
				t.Errorf("kind = %q, want invalid_request", e.Kind)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error = %q, want containing %q", e.Error, tc.want)
			}
			if want := scheme.Names(); !equalStrings(e.Supported, want) {
				t.Errorf("supported = %v, want %v", e.Supported, want)
			}
		})
	}
}

// TestSchemeBoxedGates: the boxed scheme rejects the request shapes its
// inequality dual cannot honor — audits and vague knowledge — up front,
// before any solve is admitted.
func TestSchemeBoxedGates(t *testing.T) {
	_, pubJSON := paperPublished(t)
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	rr := `{"name": "randomized_response", "params": {"rho": 0.8}}`
	resp, body := postQuantify(t, ts, "/v1/quantify?audit=1", quantifyBodyScheme(pubJSON, "", rr))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("audit: status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not audited") {
		t.Fatalf("audit: body %s", body)
	}

	withEps := quantifyBodyScheme(pubJSON, paperKnowledge, rr)
	withEps = strings.TrimSuffix(withEps, "}") + `, "eps": 0.05}`
	resp, body = postQuantify(t, ts, "/v1/quantify", withEps)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("eps: status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "vague") {
		t.Fatalf("eps: body %s", body)
	}
}

// TestHealthzListsSchemes: discovery — /healthz carries the full scheme
// descriptors, /readyz the name list.
func TestHealthzListsSchemes(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Schemes) != len(scheme.Names()) {
		t.Fatalf("healthz schemes = %+v", health.Schemes)
	}
	for _, d := range health.Schemes {
		if d.Name == "" || len(d.Params) == 0 {
			t.Fatalf("healthz descriptor incomplete: %+v", d)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Schemes []string `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(ready.Schemes, scheme.Names()) {
		t.Fatalf("readyz schemes = %v, want %v", ready.Schemes, scheme.Names())
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPipelineMetricsEveryPath: an equality, a vague and a boxed
// (randomized_response) quantify each run the one prepared body, so each
// counts once in pmaxent_quantify_total and observes the formulate and
// quantify-duration histograms once.
func TestPipelineMetricsEveryPath(t *testing.T) {
	_, pubJSON := paperPublished(t)
	rr, err := scheme.NewRandomizedResponse(0.8, 7).Publish(dataset.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	var rrJSON bytes.Buffer
	if err := bucket.WriteJSON(&rrJSON, rr); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, body := range []string{
		quantifyBody(pubJSON, paperKnowledge),
		`{"published": ` + string(pubJSON) + `, "knowledge": ` + paperKnowledge + `, "eps": 0.05}`,
		quantifyBodyScheme(rrJSON.Bytes(), "", `{"name": "randomized_response", "params": {"rho": 0.8, "seed": 7}}`),
	} {
		if resp, raw := postQuantify(t, ts, "/v1/quantify", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
	}
	if got := srv.reg.Counter("pmaxent_quantify_total").Value(); got != 3 {
		t.Fatalf("pmaxent_quantify_total = %v, want 3", got)
	}
	for name, buckets := range map[string][]float64{
		"pmaxent_formulate_constraints":     telemetry.CountBuckets,
		"pmaxent_quantify_duration_seconds": telemetry.DurationBuckets,
	} {
		if n := srv.reg.Histogram(name, buckets).Count(); n != 3 {
			t.Errorf("%s observed %d times, want 3", name, n)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

// quantifyOK posts a quantify request and decodes its 200 response.
func quantifyOK(t *testing.T, ts *httptest.Server, body string) QuantifyResponse {
	t.Helper()
	resp, raw := postQuantify(t, ts, "/v1/quantify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var r QuantifyResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("decoding: %v\n%s", err, raw)
	}
	return r
}

// aliased reports whether the cache knows the view key of published
// under the absent scheme. A request's "published" value carries no
// surrounding whitespace.
func aliased(srv *Server, published []byte) bool {
	_, ok := srv.cache.view(viewKey(nil, bytes.TrimSpace(published)))
	return ok
}

// otherPublished is a second view of the paper's table: one bucket of
// every record.
func otherPublished(t *testing.T) []byte {
	t.Helper()
	d, err := bucket.FromPartition(dataset.PaperExample(), [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bucket.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestViewAliasEviction: an alias leaves with its entry. After the LRU
// evicts a publication, its re-sent bytes are parsed again and miss.
func TestViewAliasEviction(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{CacheSize: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if r := quantifyOK(t, ts, quantifyBody(pubJSON, paperKnowledge)); r.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", r.Cache)
	}
	if !aliased(srv, pubJSON) {
		t.Fatal("a successful request left its view unaliased")
	}
	if r := quantifyOK(t, ts, quantifyBody(pubJSON, secondKnowledge)); r.Cache != "hit" {
		t.Fatalf("aliased request cache = %q, want hit", r.Cache)
	}
	other := otherPublished(t)
	if r := quantifyOK(t, ts, quantifyBody(other, "")); r.Cache != "miss" {
		t.Fatalf("second publication cache = %q, want miss", r.Cache)
	}
	if aliased(srv, pubJSON) {
		t.Fatal("the evicted publication's alias survived its entry")
	}
	if r := quantifyOK(t, ts, quantifyBody(pubJSON, paperKnowledge)); r.Cache != "miss" {
		t.Fatalf("re-sent evicted publication cache = %q, want miss", r.Cache)
	}
	if !aliased(srv, pubJSON) || aliased(srv, other) {
		t.Fatal("aliases do not follow the resident entry")
	}
}

// TestViewAliasFailedBuild: a build that fails drops its entry, and no
// alias outlives it; the next request parses the view again and misses.
func TestViewAliasFailedBuild(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{SolveTimeout: 50 * time.Millisecond})
	var slow atomic.Bool
	slow.Store(true)
	srv.solveHook = func() {
		if slow.Load() {
			time.Sleep(100 * time.Millisecond) // past the budget: the build sees a dead context
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, raw := postQuantify(t, ts, "/v1/quantify", quantifyBody(pubJSON, ""))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	// The handler gave up first; wait for the detached solve to fail.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.live.snapshot()
		if len(st) == 1 && st[0].State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve never failed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.cache.len() != 0 || aliased(srv, pubJSON) {
		t.Fatalf("failed build left %d entries, aliased %v", srv.cache.len(), aliased(srv, pubJSON))
	}
	slow.Store(false)
	if r := quantifyOK(t, ts, quantifyBody(pubJSON, "")); r.Cache != "miss" {
		t.Fatalf("request after the failed build: cache = %q, want miss", r.Cache)
	}

	// Directly: an alias on an entry goes when a failed build drops it.
	c := newPreparedCache(4, nil)
	c.get("d")
	c.alias(viewKey(nil, pubJSON), viewAlias{digest: "d"})
	if _, ok := c.view(viewKey(nil, pubJSON)); !ok {
		t.Fatal("alias on a resident entry not registered")
	}
	c.drop("d")
	if _, ok := c.view(viewKey(nil, pubJSON)); ok {
		t.Fatal("drop left the entry's alias behind")
	}
}

// TestViewAliasFormatting: the same view serialized indented and compact
// has one digest and one entry; the second form hits it, and each form
// gets its own alias.
func TestViewAliasFormatting(t *testing.T) {
	_, indented := paperPublished(t)
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := quantifyOK(t, ts, quantifyBody(indented, paperKnowledge))
	second := quantifyOK(t, ts, quantifyBody(compact.Bytes(), paperKnowledge))
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Fatalf("cache = %q then %q, want miss then hit", first.Cache, second.Cache)
	}
	if first.Digest != second.Digest {
		t.Fatalf("formatting split the digest: %s vs %s", first.Digest, second.Digest)
	}
	if n := srv.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	if !aliased(srv, indented) || !aliased(srv, compact.Bytes()) {
		t.Fatal("each byte form should have its alias")
	}
	if again := quantifyOK(t, ts, quantifyBody(indented, paperKnowledge)); again.Cache != "hit" || again.Digest != first.Digest {
		t.Fatalf("original bytes again: cache %q digest %s", again.Cache, again.Digest)
	}
}

// TestViewAliasBounded: however many byte forms of one publication
// arrive, its entry keeps at most maxViews aliases, the newest.
func TestViewAliasBounded(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var forms [][]byte
	for i := 0; i < maxViews+2; i++ {
		form := append([]byte("{"+strings.Repeat(" ", i)), pubJSON[1:]...)
		forms = append(forms, form)
		quantifyOK(t, ts, quantifyBody(form, ""))
	}
	srv.cache.mu.Lock()
	n := len(srv.cache.views)
	srv.cache.mu.Unlock()
	if n != maxViews {
		t.Fatalf("%d aliases for one entry, want %d", n, maxViews)
	}
	if aliased(srv, forms[0]) || !aliased(srv, forms[len(forms)-1]) {
		t.Fatal("the oldest form should have been replaced by the newest")
	}
}

// TestViewAliasSchemes: an absent scheme, an explicit anatomy declaration
// and mondrian over the same bytes never share a view key. The first two
// share the prepared entry, as before; each keeps its own digest and
// echo when its alias is used.
func TestViewAliasSchemes(t *testing.T) {
	_, pubJSON := paperPublished(t)
	anatomy, err := resolveScheme(&SchemeSpec{Name: "anatomy"})
	if err != nil {
		t.Fatal(err)
	}
	mondrian, err := resolveScheme(&SchemeSpec{Name: "mondrian", Params: json.RawMessage(`{"k": 3}`)})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[[32]byte]string{}
	for name, rs := range map[string]*resolvedScheme{"absent": nil, "anatomy": anatomy, "mondrian": mondrian} {
		k := viewKey(rs, pubJSON)
		if other, dup := keys[k]; dup {
			t.Fatalf("%s and %s share a view key", name, other)
		}
		keys[k] = name
	}

	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	bodies := []struct{ name, body, cache string }{
		{"absent", quantifyBody(pubJSON, paperKnowledge), "miss"},
		{"anatomy", quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "anatomy"}`), "hit"},
		{"mondrian", quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "mondrian", "params": {"k": 3}}`), "miss"},
	}
	first := map[string]QuantifyResponse{}
	for _, b := range bodies {
		r := quantifyOK(t, ts, b.body)
		if r.Cache != b.cache {
			t.Fatalf("%s: cache = %q, want %q", b.name, r.Cache, b.cache)
		}
		first[b.name] = r
	}
	if first["absent"].Digest != first["anatomy"].Digest || first["absent"].Digest == first["mondrian"].Digest {
		t.Fatal("digests: anatomy must share the absent default's, mondrian must not")
	}
	if n := srv.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	for _, b := range bodies {
		r := quantifyOK(t, ts, b.body)
		if r.Cache != "hit" || r.Digest != first[b.name].Digest {
			t.Fatalf("%s again: cache %q digest %s, want hit %s", b.name, r.Cache, r.Digest, first[b.name].Digest)
		}
		if (r.Scheme == nil) != (b.name == "absent") {
			t.Fatalf("%s again: scheme echo %+v", b.name, r.Scheme)
		}
	}
}

// TestViewAliasConcurrentHits: many requests resolving one alias at once
// share its parsed view; run under -race.
func TestViewAliasConcurrentHits(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	want := quantifyOK(t, ts, quantifyBody(pubJSON, "")).Digest

	knowledge := []string{"", paperKnowledge, secondKnowledge}
	var wg sync.WaitGroup
	errs := make(chan string, 24)
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := quantifyBody(pubJSON, knowledge[i%len(knowledge)])
			if i%4 == 3 {
				body = batchBody(pubJSON, false, knowledge...)
			}
			path := "/v1/quantify"
			if i%4 == 3 {
				path += "/batch"
			}
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var r struct {
				Digest string `json:"digest"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK || r.Digest != want {
				errs <- "request " + path + " failed or changed digest"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestViewErrorPrecedence: with or without a known alias, a request's
// errors come in the order they always did: the published view, then
// knowledge, then the scheme declaration.
func TestViewErrorPrecedence(t *testing.T) {
	_, pubJSON := paperPublished(t)
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	badKnowledge := `[{"if": {"Gender": "male"}, "then": "No Such Disease", "p": 0}]`
	badScheme := `{"name": "bucketize"}`
	body := func(pub []byte, knowledge, sch string) string {
		return quantifyBodyScheme(pub, knowledge, sch)
	}
	cases := []struct {
		name, body, want string
		supported        bool
	}{
		{"view before knowledge and scheme", body([]byte(`{"qi": 7}`), badKnowledge, badScheme), "published view", false},
		{"knowledge before scheme", body(pubJSON, badKnowledge, badScheme), "knowledge", false},
		{"scheme", body(pubJSON, paperKnowledge, badScheme), "bad scheme", true},
	}
	for _, aliasedYet := range []bool{false, true} {
		if aliasedYet {
			quantifyOK(t, ts, quantifyBody(pubJSON, ""))
			if !aliased(srv, pubJSON) {
				t.Fatal("view not aliased")
			}
		}
		for _, tc := range cases {
			resp, raw := postQuantify(t, ts, "/v1/quantify", tc.body)
			var e ErrorResponse
			if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s (aliased %v): status %d body %s", tc.name, aliasedYet, resp.StatusCode, raw)
			}
			if !strings.Contains(e.Error, tc.want) || (len(e.Supported) > 0) != tc.supported {
				t.Fatalf("%s (aliased %v): error %q supported %v, want %q", tc.name, aliasedYet, e.Error, e.Supported, tc.want)
			}
		}
	}
}

// TestViewLookupLeavesLRU: resolving an alias is not a use of the entry.
// Recency stays with the solve's own lookup, so aliases cannot change
// which publication the LRU evicts, nor any later request's hit or miss.
func TestViewLookupLeavesLRU(t *testing.T) {
	c := newPreparedCache(2, nil)
	keyA := viewKey(nil, []byte(`"a"`))
	c.get("a")
	c.alias(keyA, viewAlias{digest: "a"})
	c.get("b")
	if _, ok := c.view(keyA); !ok {
		t.Fatal("alias of a not found")
	}
	c.get("c") // a is still the least recently used
	if _, hit := c.get("b"); !hit {
		t.Fatal("alias lookup bumped a past b in the LRU")
	}
	if _, ok := c.view(keyA); ok {
		t.Fatal("a's alias outlived its eviction")
	}
}

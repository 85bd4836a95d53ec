package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
)

// syntheticReport builds a report over a table whose QI attributes are
// named qi and each range over vals, with SA domain sa. Row r takes
// vals[(r+i) mod n] for attribute i, so every value occurs. Posterior
// cells cycle through cells.
func syntheticReport(t testing.TB, qi, vals, sa []string, cells []float64) (*core.Report, *dataset.Schema) {
	t.Helper()
	attrs := make([]*dataset.Attribute, 0, len(qi)+1)
	for _, name := range qi {
		attrs = append(attrs, dataset.NewAttribute(name, dataset.QuasiIdentifier, vals))
	}
	attrs = append(attrs, dataset.NewAttribute("sensitive attribute", dataset.Sensitive, sa))
	schema, err := dataset.NewSchema(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	tbl := dataset.NewTable(schema)
	for r := range vals {
		row := make([]string, 0, len(qi)+1)
		for i := range qi {
			row = append(row, vals[(r+i)%len(vals)])
		}
		if err := tbl.Append(append(row, sa[r%len(sa)])...); err != nil {
			t.Fatal(err)
		}
	}
	post := dataset.NewConditional(dataset.NewUniverse(tbl), len(sa))
	for q := 0; q < post.Universe().Len(); q++ {
		for s := range sa {
			post.Set(q, s, cells[(q*len(sa)+s)%len(cells)])
		}
	}
	return &core.Report{
		Posterior:        post,
		Solution:         &maxent.Solution{Stats: maxent.Stats{Iterations: 17, Evaluations: 19, Converged: true, MaxViolation: 3e-10, Components: 2}},
		MaxDisclosure:    0.75,
		PosteriorEntropy: 1.5,
		Timings: core.Timings{
			{Stage: core.StageFormulate, Duration: 1500 * time.Microsecond},
			{Stage: core.StageSolve, Duration: 2 * time.Millisecond},
		},
	}, schema
}

// paperReport solves the paper's example with its knowledge, audited or
// not, for the encodings of real solver output.
func paperReport(t testing.TB, audited bool) (*core.Report, *dataset.Schema) {
	t.Helper()
	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	var cfg core.Config
	if audited {
		cfg.Audit = &audit.Options{}
	}
	knowledge, err := constraint.ParseKnowledgeJSON(strings.NewReader(paperKnowledge), d.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return offlineReport(t, core.New(cfg), d, knowledge), d.Schema()
}

// encodedPair returns what the server writes for a response and what
// json.Marshal writes for buildResponse's struct plus the newline, with
// their errors.
func encodedPair(rep *core.Report, schema *dataset.Schema, cache string, eps float64, sch *SchemeSpec) (got, want []byte, gotErr, wantErr error) {
	const digest = "5fd0b9a1c2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d0e1f2a3b4c5d6e7f8a9"
	full := buildResponse(digest, cache, eps, schema, rep, maxent.LBFGS)
	full.Scheme, full.ElapsedMS = sch, 12.25
	want, wantErr = json.Marshal(full)
	if wantErr == nil {
		want = append(want, '\n')
	}
	resp := responseFields(digest, cache, eps, rep, maxent.LBFGS)
	resp.Scheme, resp.ElapsedMS = sch, 12.25
	got, gotErr = encodeResponse(resp, rep.Posterior, schema)
	return got, want, gotErr, wantErr
}

// checkEncoding fails unless the server's bytes, or its error, are
// exactly encoding/json's.
func checkEncoding(t *testing.T, rep *core.Report, schema *dataset.Schema, cache string, eps float64, sch *SchemeSpec) {
	t.Helper()
	got, want, gotErr, wantErr := encodedPair(rep, schema, cache, eps, sch)
	if wantErr != nil || gotErr != nil {
		// A NaN or ±Inf: the request fails as before, with the same
		// message and the same 500 "internal".
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error = %v, encoding/json's = %v", gotErr, wantErr)
		}
		if status, kind := classify(gotErr); status != http.StatusInternalServerError || kind != "internal" {
			t.Fatalf("error classified %d %q, want 500 internal", status, kind)
		}
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("bodies diverge at byte %d:\ngot:  %q\nwant: %q", i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
	}
	if cap(got) != len(got) {
		t.Fatalf("body has capacity %d for %d bytes", cap(got), len(got))
	}
}

// TestResponseEncoding: the server's quantify bytes equal json.Marshal of
// buildResponse's struct plus a newline, for key orders, escapes and
// floats where a hand-written encoder could drift, and for audited,
// scheme-echoing and vague responses.
func TestResponseEncoding(t *testing.T) {
	probs := []float64{0.25, 0.75, 0, 1}
	specials := []string{"<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "\xfe", "a\x01b", "\n\t\b\f\r", "é", "plain"}
	cases := []struct {
		name     string
		qi, vals []string
		sa       []string
		cells    []float64
		cache    string
		eps      float64
		sch      *SchemeSpec
		mutate   func(*core.Report, *dataset.Schema)
	}{
		// encoding/json sorts keys by the raw string: '&' < '<' < '=' < '>'
		// raw, but escaped "a=" sorts before every "a\u00..".
		{name: "raw key order", qi: []string{"a<", "a=", "a>", "a&"}, vals: []string{"x"},
			sa: []string{"a=", "a<", "a>", "a&", "a"}, cells: probs, cache: "hit"},
		{name: "escapes in names", qi: specials, vals: []string{"v"}, sa: []string{"s"}, cells: probs, cache: "miss"},
		{name: "escapes in values", qi: []string{"q"}, vals: specials, sa: specials, cells: probs, cache: "miss"},
		{name: "floats", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"},
			cells: []float64{0, math.Copysign(0, -1), 1, 1e-6, 9.99e-7, 1e21, 5e-324, 0.1 + 0.2, 1e20, 123456.789}, cache: "hit"},
		{name: "tiny and huge", qi: []string{"q"}, vals: []string{"v", "w"}, sa: []string{"a", "b", "c"},
			cells: []float64{math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-7, 1e-300, 2.5e-8}, cache: "hit"},
		{name: "no rows", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a"}, cells: probs, cache: "miss",
			mutate: func(r *core.Report, sc *dataset.Schema) {
				r.Posterior = dataset.NewConditional(dataset.NewUniverse(dataset.NewTable(sc)), 1)
			}},
		{name: "vague", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a", "b"}, cells: probs, cache: "bypass", eps: 0.05},
		{name: "scheme echo", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a", "b"}, cells: probs, cache: "hit",
			sch: &SchemeSpec{Name: "mondrian", Params: json.RawMessage(`{"k":3}`)}},
		{name: "no timings", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a"}, cells: probs, cache: "hit",
			mutate: func(r *core.Report, _ *dataset.Schema) { r.Timings = nil }},
		{name: "NaN cell", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a", "b"}, cells: []float64{0.5, math.NaN()}, cache: "hit"},
		{name: "+Inf cell", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a", "b"}, cells: []float64{math.Inf(1)}, cache: "hit"},
		// Fields fail in order: the score comes before the posterior.
		{name: "-Inf score before NaN cell", qi: []string{"q"}, vals: []string{"v"}, sa: []string{"a"}, cells: []float64{math.NaN()}, cache: "hit",
			mutate: func(r *core.Report, _ *dataset.Schema) { r.MaxDisclosure = math.Inf(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, schema := syntheticReport(t, tc.qi, tc.vals, tc.sa, tc.cells)
			if tc.mutate != nil {
				tc.mutate(rep, schema)
			}
			checkEncoding(t, rep, schema, tc.cache, tc.eps, tc.sch)
		})
	}
	t.Run("paper", func(t *testing.T) {
		rep, schema := paperReport(t, false)
		checkEncoding(t, rep, schema, "miss", 0, nil)
	})
	t.Run("paper audited", func(t *testing.T) {
		rep, schema := paperReport(t, true)
		rep.Audit.RequestID = "req-<&>"
		checkEncoding(t, rep, schema, "hit", 0, &SchemeSpec{Name: "anatomy", Params: json.RawMessage(`{"l":2}`)})
	})
}

// TestResponseValueMemo: a posterior with more distinct values than the
// value memo has slots, each repeated, and zeros of both signs between
// them, encodes to encoding/json's bytes, so values that share a slot
// never borrow each other's text.
func TestResponseValueMemo(t *testing.T) {
	var cells []float64
	for i := 1; i <= 300; i++ {
		cells = append(cells, float64(i)/701, 0, math.Copysign(0, -1), 1e-7*float64(i))
	}
	vals := make([]string, 60)
	for i := range vals {
		vals[i] = strconv.Itoa(i)
	}
	sa := make([]string, 40)
	for i := range sa {
		sa[i] = "s" + strconv.Itoa(i)
	}
	// 60 rows of 40 cells go through the 1,200 cells twice, and their
	// 600 nonzero values take each of the memo's 256 slots about twice.
	rep, schema := syntheticReport(t, []string{"q"}, vals, sa, cells)
	checkEncoding(t, rep, schema, "hit", 0, nil)
}

// FuzzResponseEncoding: for any attribute names, values and cells, the
// server's bytes or error are encoding/json's.
func FuzzResponseEncoding(f *testing.F) {
	f.Add("a<|a=|a>|a&", "x|y", 0.25, 0.75, 1.0)
	f.Add("<|>|&|\"|\\", "\u2028|\u2029|\xff|\xfe", 0.0, math.Copysign(0, -1), 5e-324)
	f.Add("Gender|Degree", "male|female|<b>", 1e-6, 9.99e-7, 1e21)
	f.Add("q", "v", 0.1+0.2, math.NaN(), math.Inf(1))
	f.Add("é|e\u0301", "\x00|\x1f", 1e-300, 123456.789, 2.5e-8)
	f.Fuzz(func(t *testing.T, names, values string, a, b, c float64) {
		qi, vals := distinct(strings.Split(names, "|")), distinct(strings.Split(values, "|"))
		if len(qi) > 8 || len(vals) > 16 {
			t.Skip("keep the table small")
		}
		for _, n := range qi {
			if n == "sensitive attribute" {
				t.Skip("QI name collides with the SA attribute")
			}
		}
		rep, schema := syntheticReport(t, qi, vals, vals, []float64{a, b, c})
		checkEncoding(t, rep, schema, "hit", 0, nil)
	})
}

// distinct drops repeats, keeping first occurrences.
func distinct(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestResponseHalves: responseHead and responseTail are QuantifyResponse
// around its posterior, field for field: names, types and tags in order.
func TestResponseHalves(t *testing.T) {
	full := reflect.TypeOf(QuantifyResponse{})
	var halves []reflect.StructField
	for _, typ := range []reflect.Type{reflect.TypeOf(responseHead{}), nil, reflect.TypeOf(responseTail{})} {
		if typ == nil {
			f, _ := full.FieldByName("Posterior")
			halves = append(halves, f)
			continue
		}
		for i := 0; i < typ.NumField(); i++ {
			halves = append(halves, typ.Field(i))
		}
	}
	if len(halves) != full.NumField() {
		t.Fatalf("halves have %d fields, QuantifyResponse %d", len(halves), full.NumField())
	}
	for i, h := range halves {
		f := full.Field(i)
		if h.Name != f.Name || h.Type != f.Type || h.Tag != f.Tag {
			t.Fatalf("field %d: halves have %s %v `%s`, QuantifyResponse %s %v `%s`", i, h.Name, h.Type, h.Tag, f.Name, f.Type, f.Tag)
		}
	}
}

// TestBatchEncoding: the batch envelope, with finished variant bodies
// spliced in, equals json.Marshal of the response, which is what the
// non-streamed body (plus a newline) and the ?stream=1 result frame
// carried before.
func TestBatchEncoding(t *testing.T) {
	rep, schema := syntheticReport(t, []string{"a<", "a="}, []string{"x", "\u2028"}, []string{"<s>", "t"}, []float64{0.5, 1e-9})
	resp := responseFields("d1", "hit", 0, rep, maxent.LBFGS)
	body, err := encodeResponse(resp, rep.Posterior, schema)
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.TrimRight(body, "\n")
	for _, br := range []*BatchQuantifyResponse{
		{Digest: "d1", ElapsedMS: 3.5, Variants: []BatchVariantResult{
			{Index: 0, SolveID: "d1-1", Response: body},
			{Index: 1, SolveID: "d1-2", Error: &ErrorResponse{Error: "infeasible <knowledge> & \"more\"", Kind: "infeasible"}},
			{Index: 2, Response: body},
		}},
		{Digest: "d2", Scheme: &SchemeSpec{Name: "mondrian", Params: json.RawMessage(`{"k":4}`)}, ElapsedMS: 1e-7,
			Variants: []BatchVariantResult{{Index: 0, SolveID: "d2-9", Error: &ErrorResponse{Error: "deadline", Kind: "deadline"}}}},
		{Digest: "d3", Variants: []BatchVariantResult{}},
	} {
		want, err := json.Marshal(br)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeBatch(br)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch envelope diverges:\ngot:  %s\nwant: %s", got, want)
		}
	}
}

// TestServedBodiesCanonical: every body the daemon serves, and the
// streamed result frames, are already in encoding/json's form: decoding
// and re-marshaling them gives the same bytes. Covered: miss, hit,
// audited, vague and scheme-declaring quantifies, and a batch with a
// failed variant, plain and streamed.
func TestServedBodiesCanonical(t *testing.T) {
	_, pubJSON := paperPublished(t)
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	canonical := func(t *testing.T, raw []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding: %v\n%s", err, raw)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("served bytes are not encoding/json's:\nserved:     %s\nre-encoded: %s", raw, again)
		}
	}
	for _, tc := range []struct{ name, path, body string }{
		{"miss", "/v1/quantify", quantifyBody(pubJSON, paperKnowledge)},
		{"hit", "/v1/quantify", quantifyBody(pubJSON, secondKnowledge)},
		{"audited", "/v1/quantify?audit=1", quantifyBody(pubJSON, paperKnowledge)},
		{"vague", "/v1/quantify", `{"published": ` + string(pubJSON) + `, "knowledge": ` + paperKnowledge + `, "eps": 0.05}`},
		{"scheme", "/v1/quantify", quantifyBodyScheme(pubJSON, paperKnowledge, `{"name": "mondrian", "params": {"k": 3}}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postQuantify(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, raw)
			}
			body, ok := bytes.CutSuffix(raw, []byte("\n"))
			if !ok {
				t.Fatalf("body lacks its trailing newline: %q", raw[max(0, len(raw)-20):])
			}
			canonical(t, body, new(QuantifyResponse))
		})
	}

	batch := batchBody(pubJSON, false, paperKnowledge, infeasibleKnowledge, "")
	t.Run("batch", func(t *testing.T) {
		resp, raw := postQuantify(t, ts, "/v1/quantify/batch", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		body, ok := bytes.CutSuffix(raw, []byte("\n"))
		if !ok {
			t.Fatal("batch body lacks its trailing newline")
		}
		var br BatchQuantifyResponse
		canonical(t, body, &br)
		if br.Variants[1].Error == nil || br.Variants[1].Error.Kind != "infeasible" {
			t.Fatalf("variant 1 = %+v, want an infeasible failure", br.Variants[1])
		}
	})
	t.Run("batch stream", func(t *testing.T) {
		resp, raw := postQuantify(t, ts, "/v1/quantify/batch?stream=1", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		frames := parseSSE(t, raw)
		canonical(t, frames[frameIndex(frames, "result")].data, new(BatchQuantifyResponse))
	})
	t.Run("quantify stream", func(t *testing.T) {
		resp, raw := postQuantify(t, ts, "/v1/quantify?stream=1", quantifyBody(pubJSON, `[]`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, raw)
		}
		frames := parseSSE(t, raw)
		canonical(t, frames[frameIndex(frames, "result")].data, new(QuantifyResponse))
	})
}

// infeasibleKnowledge pins every disease to zero for males, who exist in
// the published data: presolve reports the contradiction.
const infeasibleKnowledge = `[
	{"if": {"Gender": "male"}, "then": "Breast Cancer", "p": 0},
	{"if": {"Gender": "male"}, "then": "Flu", "p": 0},
	{"if": {"Gender": "male"}, "then": "Pneumonia", "p": 0},
	{"if": {"Gender": "male"}, "then": "HIV", "p": 0},
	{"if": {"Gender": "male"}, "then": "Lung Cancer", "p": 0}]`

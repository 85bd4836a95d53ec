package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

// aliasDigest names the cache entry the envelope tests alias views to.
const aliasDigest = "envelope-test"

// envelope is a request type decodeView decodes.
type envelope[T any] interface {
	*T
	viewRequest
}

// referenceDecode is the decode the server ran before view shortcuts:
// decodeBody on the request body behind the server's size limit.
func referenceDecode(srv *Server, body []byte, dst any) error {
	return decodeBody(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), srv.maxBody), dst)
}

// aliasViews aliases, under the request's scheme, every "published"
// value of body that a client could have had accepted before: the value
// the reference decode finds, and the value splitPublished cuts out when
// it is a complete JSON value. Only such bytes ever reach the alias
// table, since aliases come from requests encoding/json accepted.
func aliasViews[T any, P envelope[T]](srv *Server, body []byte) {
	srv.cache.get(aliasDigest)
	alias := func(req P) {
		published, spec := req.view()
		if rs, err := resolveScheme(spec); err == nil {
			srv.cache.alias(viewKey(rs, *published), viewAlias{digest: aliasDigest})
		}
	}
	var whole T
	if referenceDecode(srv, body, P(&whole)) == nil {
		alias(&whole)
	}
	if view, rest, ok := splitPublished(body); ok && json.Valid(view) {
		var env T
		if decodeBody(bytes.NewReader(rest), P(&env)) == nil {
			published, _ := P(&env).view()
			*published = view
			alias(&env)
		}
	}
}

// checkEnvelope decodes body with decodeView, every view it could carry
// aliased, and with the reference decode, and fails unless the two agree
// on acceptance, every field, the error's text and its kind. A key
// decodeView returns must be the decoded view's key. It reports whether
// decodeView took the aliased path.
func checkEnvelope[T any, P envelope[T]](t *testing.T, srv *Server, body []byte) bool {
	t.Helper()
	aliasViews[T, P](srv, body)
	var want, got T
	wantErr := referenceDecode(srv, body, P(&want))
	r := httptest.NewRequest(http.MethodPost, "/v1/quantify", bytes.NewReader(body))
	key, gotErr := srv.decodeView(httptest.NewRecorder(), r, P(&got))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: decodeView error %v, decodeBody error %v\nbody: %q", got, gotErr, wantErr, clip(body))
	}
	if wantErr != nil {
		_, gotKind := classify(gotErr)
		_, wantKind := classify(wantErr)
		if gotErr.Error() != wantErr.Error() || gotKind != wantKind {
			t.Fatalf("%T: error %q (%s), decodeBody's %q (%s)\nbody: %q", got, gotErr, gotKind, wantErr, wantKind, clip(body))
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decodeView gave %+v, decodeBody %+v\nbody: %q", got, got, want, clip(body))
	}
	if key == nil {
		return false
	}
	published, spec := P(&got).view()
	rs, err := resolveScheme(spec)
	if err != nil || *key != viewKey(rs, *published) {
		t.Fatalf("%T: returned key is not the decoded view's (scheme error %v)\nbody: %q", got, err, clip(body))
	}
	_, aliased := srv.cache.view(*key)
	return aliased
}

// clip shortens a body for a failure message.
func clip(b []byte) []byte {
	if len(b) > 400 {
		return append(b[:400:400], "..."...)
	}
	return b
}

// envelopeCase is one request body; fast says whether the decode of its
// kind (batch or not) should take the aliased path.
type envelopeCase struct {
	name  string
	body  string
	batch bool
	fast  bool
}

// envelopeCases are bodies around a compact paper view v, a view w whose
// strings hold quotes, backslashes and brackets, and knowledge k.
func envelopeCases(t testing.TB) []envelopeCase {
	d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
	if err != nil {
		t.Fatal(err)
	}
	var pretty, compact bytes.Buffer
	if err := bucket.WriteJSON(&pretty, d); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	v := compact.String()
	pv := strings.TrimSpace(pretty.String())
	w := `{"qi":[{"name":"a\"}],","domain":["\\","[{\\\"","]\"["]}],"sa":{"name":"s]}","domain":["x\\\\"]},"buckets":[]}`
	k := `[{"if":{"Gender":"male"},"then":"Breast Cancer","p":0}]`
	if !json.Valid([]byte(w)) {
		t.Fatalf("view %s is not JSON", w)
	}
	return []envelopeCase{
		{name: "published first", body: `{"published":` + v + `,"knowledge":` + k + `}`, fast: true},
		{name: "published last", body: `{"knowledge":` + k + `,"published":` + v + `}`, fast: true},
		{name: "published between", body: `{"eps":0.05,"published":` + v + `,"timeout_ms":60000}`, fast: true},
		{name: "published alone", body: `{"published":` + v + `}`, fast: true},
		{name: "whitespace", body: " \t\r\n{ \n\"published\" \t: " + v + " \r\n, \"knowledge\"  :  " + k + " \n} \n", fast: true},
		{name: "indented view", body: "{\n  \"published\": " + pv + "\n}\n", fast: true},
		{name: "every field", body: `{"published":` + v + `,"knowledge":` + k + `,"eps":0,"delta":true,"timeout_ms":5}`, fast: true},
		{name: "duplicate before", body: `{"published":{},"published":` + v + `}`, fast: true},
		{name: "duplicate after", body: `{"published":` + v + `,"published":{"qi":7}}`, fast: true},
		{name: "duplicate twice", body: `{"published":` + v + `,"published":` + v + `}`, fast: true},
		{name: "malformed duplicate before", body: `{"published":{"qi":},"published":` + v + `}`},
		{name: "key Published", body: `{"Published":` + v + `}`},
		{name: "key PUBLISHED", body: `{"PUBLISHED":` + v + `,"knowledge":` + k + `}`},
		{name: "key with long s", body: `{"publiſhed":` + v + `}`},
		{name: "folded key after", body: `{"published":` + v + `,"Published":{}}`},
		{name: "folded key before", body: `{"pUblished":{},"published":` + v + `}`},
		{name: "escaped key", body: `{"publi\u0073hed":` + v + `}`},
		{name: "escaped other key", body: `{"published":` + v + `,"knowl\u0065dge":` + k + `}`},
		{name: "escaped key after", body: `{"published":` + v + `,"publi\u0073hed":{}}`},
		{name: "unknown field", body: `{"published":` + v + `,"bogus":1}`},
		{name: "unknown field before", body: `{"bogus":1,"published":` + v + `}`},
		{name: "unknown scheme field", body: `{"published":` + v + `,"scheme":{"name":"anatomy","x":1}}`},
		{name: "wrong types", body: `{"eps":"x","published":` + v + `,"delta":3}`},
		{name: "comma after view", body: `{"published":` + v + `,}`},
		{name: "no comma after view", body: `{"published":` + v + ` "knowledge":` + k + `}`},
		{name: "unclosed", body: `{"published":` + v + `,"knowledge":` + k},
		{name: "colon missing", body: `{"published":` + v + `,"knowledge"` + k + `}`},
		{name: "malformed knowledge", body: `{"published":` + v + `,"knowledge":[{"if":{},"then":"x","p":0.5,}]}`},
		{name: "mismatched brackets in knowledge", body: `{"published":` + v + `,"knowledge":[}`},
		{name: "balanced but wrong brackets", body: `{"published":` + v + `,"knowledge":[{"if":{"a":"b"]}]}`},
		{name: "trailing bytes", body: `{"published":` + v + `} trailing`, fast: true},
		{name: "trailing object", body: `{"published":` + v + `}{"published":{}}`, fast: true},
		{name: "trailing garbage bracket", body: `{"published":` + v + `}]}`, fast: true},
		{name: "empty", body: ``},
		{name: "whitespace only", body: " \n\t"},
		{name: "null", body: `null`},
		{name: "empty object", body: `{}`},
		{name: "array", body: `[]`},
		{name: "array of envelope", body: `[{"published":` + v + `}]`},
		{name: "string", body: `"published"`},
		{name: "null view", body: `{"published":null}`, fast: true},
		{name: "number view", body: `{"published":12,"knowledge":` + k + `}`, fast: true},
		{name: "bad number view", body: `{"published":1-2}`},
		{name: "unclosed view", body: `{"published":` + v[:len(v)-1]},
		{name: "scheme", body: `{"published":` + v + `,"scheme":{"name":"mondrian","params":{"k":2}}}`, fast: true},
		{name: "scheme before", body: `{"scheme":{"name":"anatomy"},"published":` + v + `}`, fast: true},
		{name: "unknown scheme", body: `{"published":` + v + `,"scheme":{"name":"bogus"}}`},
		{name: "tricky view", body: `{"published":` + w + `,"knowledge":` + k + `}`, fast: true},
		{name: "tricky strings before", body: `{"knowledge":[{"if":{"a}\"{":"}\\"},"then":"]\\\\","p":0}],"published":` + v + `}`, fast: true},
		{name: "batch", body: `{"published":` + v + `,"variants":[{"knowledge":` + k + `},{}]}`, batch: true, fast: true},
		{name: "batch view last", body: `{"variants":[{"knowledge":` + k + `}],"delta":true,"published":` + w + `}`, batch: true, fast: true},
		{name: "batch unknown variant field", body: `{"published":` + v + `,"variants":[{"knowledge":` + k + `,"x":1}]}`, batch: true},
		{name: "batch malformed variant", body: `{"published":` + v + `,"variants":[{"knowledge":[}]}`, batch: true},
		{name: "batch with knowledge", body: `{"published":` + v + `,"knowledge":` + k + `}`, batch: true},
		{name: "batch duplicate before", body: `{"published":{},"variants":[],"published":` + v + `}`, batch: true, fast: true},
	}
}

// TestEnvelopeDecode: decodeView accepts, fills and rejects every body
// exactly as decodeBody does, and takes the aliased path only where the
// view's bytes can be cut out without changing what the body means.
func TestEnvelopeDecode(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	for _, tc := range envelopeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			fast := checkEnvelope[QuantifyRequest](t, srv, body)
			if fastBatch := checkEnvelope[BatchQuantifyRequest](t, srv, body); tc.batch {
				fast = fastBatch
			}
			if fast != tc.fast {
				t.Fatalf("aliased path taken = %v, want %v", fast, tc.fast)
			}
		})
	}
}

// TestEnvelopeDecodeOverLimit: a body past the size limit is never
// shortened. Its first value still decodes when it ends inside the
// limit, and otherwise fails with the limit's error, as before.
func TestEnvelopeDecodeOverLimit(t *testing.T) {
	_, pretty := paperPublished(t)
	v := strings.TrimSpace(string(pretty))
	inside := `{"published":` + v + `}`
	srv := New(Config{})
	defer srv.Close()
	srv.maxBody = int64(len(inside)) + 16
	pad := strings.Repeat(" ", int(srv.maxBody))
	for _, tc := range []struct {
		name string
		body string
		fast bool
	}{
		{"at the limit", inside + strings.Repeat(" ", 16), true},
		{"value inside the limit", inside + pad, false},
		{"value past the limit", `{"knowledge":` + pad + `[],"published":` + v + `}`, false},
		{"view past the limit", `{"published":` + v + pad + `}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if fast := checkEnvelope[QuantifyRequest](t, srv, []byte(tc.body)); fast != tc.fast {
				t.Fatalf("aliased path taken = %v, want %v", fast, tc.fast)
			}
		})
	}
	var req QuantifyRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/quantify", strings.NewReader(`{"published":`+v+pad+`}`))
	if _, err := srv.decodeView(httptest.NewRecorder(), r, &req); err == nil || !strings.Contains(err.Error(), "request body too large") {
		t.Fatalf("a view past the limit decoded with error %v", err)
	}
}

// FuzzEnvelopeDecode: for any body, with every view it could carry
// aliased, decodeView agrees with decodeBody for both request types.
func FuzzEnvelopeDecode(f *testing.F) {
	for _, tc := range envelopeCases(f) {
		f.Add([]byte(tc.body))
	}
	srv := New(Config{})
	defer srv.Close()
	srv.maxBody = 4 << 10
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEnvelope[QuantifyRequest](t, srv, body)
		checkEnvelope[BatchQuantifyRequest](t, srv, body)
	})
}

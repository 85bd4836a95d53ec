package server

// Request envelopes that carry a published view. Most quantify requests
// re-send a view whose exact bytes the cache already aliases (see
// viewKey), and the view is nearly all of the body: decoding the whole
// envelope with encoding/json scans those bytes twice, once to find the
// value's end and once to copy it into the json.RawMessage. decodeView
// reads the body once, cuts the top-level "published" value out with a
// scan that only follows strings and brackets, and, when those bytes
// are aliased under the request's scheme, decodes just the rest.
//
// That is exact. An aliased byte string was the "published" value of an
// envelope encoding/json accepted, so it is a complete JSON value, and
// any complete value leaves the decoder in the same state as the null
// put in its place: the rest decodes with the same fields, errors and
// error order as the whole body would. The scan agrees with the decoder
// on where members and strings begin and end wherever the rest decodes,
// because it reads valid JSON as the decoder does, and it gives up on
// any key that could also land in Published (one with an escape, or one
// encoding/json's case folding matches). Every other body (one the scan
// gives up on, whose view is not aliased, whose rest does not decode,
// or that exceeds the size limit) goes through decodeBody on the same
// bytes.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
)

// viewRequest is a request body that carries a published view under an
// optional scheme: QuantifyRequest or BatchQuantifyRequest.
type viewRequest interface {
	view() (published *json.RawMessage, spec *SchemeSpec)
}

func (q *QuantifyRequest) view() (*json.RawMessage, *SchemeSpec) {
	return &q.Published, q.Scheme
}

func (q *BatchQuantifyRequest) view() (*json.RawMessage, *SchemeSpec) {
	return &q.Published, q.Scheme
}

// decodeView decodes a quantify or batch request body into dst. It
// returns the view key of dst's published bytes under its scheme when it
// hashed them, for readView to reuse, and nil otherwise.
func (s *Server) decodeView(w http.ResponseWriter, r *http.Request, dst viewRequest) (*[32]byte, error) {
	body, readErr := readBody(w, r, s.maxBody)
	var key *[32]byte
	if readErr == nil {
		if view, rest, ok := splitPublished(body); ok && decodeBody(bytes.NewReader(rest), dst) == nil {
			published, spec := dst.view()
			if rs, err := resolveScheme(spec); err == nil {
				k := viewKey(rs, view)
				if _, hit := s.cache.view(k); hit {
					*published = view
					return &k, nil
				}
				// The whole body decodes to the same scheme and view
				// whenever it decodes at all, so the key still holds.
				key = &k
			}
		}
		reflect.ValueOf(dst).Elem().SetZero()
	}
	// The decoder sees exactly what it would have read from the request:
	// the bytes, then the read's error, if any (an over-limit body whose
	// first value ends inside the limit still decodes).
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	if err := decodeBody(src, dst); err != nil {
		return nil, err
	}
	return key, nil
}

// presizeBytes bounds how much of a body's declared length readBody
// allocates before the bytes arrive: enough for a view of a few
// thousand records, while a larger body grows its buffer as it is read.
const presizeBytes = 1 << 20

// readBody reads a request body of up to limit bytes. It returns the
// bytes read before any error, as the decoder would have seen them.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > presizeBytes {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// splitPublished finds the value of body's last top-level member keyed
// exactly "published". It returns that value and rest: body up to the
// end of its top-level object with the value replaced by null. It
// validates nothing, and reports false when body's first value is not an
// object it can follow to the end, when no member has that key, or when
// another member's key would need unescaping or folds to "published".
func splitPublished(body []byte) (view, rest []byte, ok bool) {
	start, end := -1, -1
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, nil, false
	}
	i = skipSpace(body, i+1)
	for i < len(body) && body[i] == '"' {
		k := skipString(body, i)
		if k < 0 {
			return nil, nil, false
		}
		key := body[i+1 : k-1]
		exact := string(key) == "published"
		if !exact && (bytes.IndexByte(key, '\\') >= 0 || bytes.EqualFold(key, []byte("published"))) {
			return nil, nil, false
		}
		i = skipSpace(body, k)
		if i == len(body) || body[i] != ':' {
			return nil, nil, false
		}
		i = skipSpace(body, i+1)
		e := skipValue(body, i)
		if e < 0 {
			return nil, nil, false
		}
		if exact {
			start, end = i, e
		}
		i = skipSpace(body, e)
		if i == len(body) {
			return nil, nil, false
		}
		if body[i] == '}' {
			if start < 0 {
				return nil, nil, false
			}
			rest = make([]byte, 0, start+len("null")+i+1-end)
			rest = append(rest, body[:start]...)
			rest = append(rest, "null"...)
			rest = append(rest, body[end:i+1]...)
			return body[start:end], rest, true
		}
		if body[i] != ',' {
			return nil, nil, false
		}
		i = skipSpace(body, i+1)
	}
	return nil, nil, false
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// skipString returns the index just past the string that opens at b[i],
// or -1 when it does not close. A quote ends the string unless an odd
// run of backslashes escapes it.
func skipString(b []byte, i int) int {
	start := i + 1
	for i = start; ; {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return -1
		}
		q += i
		k := q
		for k > start && b[k-1] == '\\' {
			k--
		}
		if (q-k)%2 == 0 {
			return q + 1
		}
		i = q + 1
	}
}

// structural classes the bytes a bracketed value's scan stops at; a
// table lookup per byte is faster than a switch over the five of them.
var structural = [256]uint8{'"': strQuote, '{': openBracket, '[': openBracket, '}': closeBracket, ']': closeBracket}

const (
	strQuote = 1 + iota
	openBracket
	closeBracket
)

// skipValue returns the index just past the value that starts at b[i],
// or -1 when it does not end: a string, a bracketed object or array
// followed through nested strings and brackets, or any other run of
// bytes up to the next delimiter.
func skipValue(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch structural[b[i]] {
			case strQuote:
				j := skipString(b, i)
				if j < 0 {
					return -1
				}
				i = j - 1
			case openBracket:
				depth++
			case closeBracket:
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	j := i
	for j < len(b) {
		switch b[j] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			if j == i {
				return -1
			}
			return j
		}
		j++
	}
	return -1
}

package server

// Response encoding. A quantify response is mostly its posterior: one
// row of two maps per QI tuple, ~500 KB for a 1,000-record view. Passing
// that through encoding/json means building the maps, then reflecting
// over and sorting every one of them. encodeResponse writes the
// posterior straight from the report's dataset.Conditional instead, and
// leaves encoding/json every other field. The bytes are exactly
// json.Marshal(buildResponse(...)) plus a newline: map keys in
// encoding/json's order (the raw strings, sorted), each name and value
// quoted once per response by encoding/json itself, and floats in its
// float64 format, each distinct cell value formatted once per response.
// A batch envelope splices its variants' finished bodies in verbatim
// rather than letting encoding/json re-compact them.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/dataset"
)

// responseHead and responseTail are QuantifyResponse's fields before and
// after Posterior, in order and with the same tags. TestResponseHalves
// holds them to QuantifyResponse.
type responseHead struct {
	Digest               string      `json:"digest"`
	Cache                string      `json:"cache"`
	Scheme               *SchemeSpec `json:"scheme,omitempty"`
	KnowledgeApplied     int         `json:"knowledge_applied"`
	Eps                  float64     `json:"eps,omitempty"`
	MaxDisclosure        float64     `json:"max_disclosure"`
	PosteriorEntropyBits float64     `json:"posterior_entropy_bits"`
}

type responseTail struct {
	Solver    SolverStats        `json:"solver"`
	Audit     *audit.SolveAudit  `json:"audit,omitempty"`
	TimingsMS map[string]float64 `json:"timings_ms,omitempty"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// bodyBufs recycles the buffers bodies are assembled in. A returned body
// is an exact-size copy, as json.Marshal returns, so a cached or
// retained body never pins a grown buffer's spare capacity.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeResponse renders resp with post's rows as its posterior, plus the
// trailing newline; resp.Posterior itself is ignored. Fields are written
// in order, so a NaN or ±Inf fails with the error json.Marshal would
// report first.
func encodeResponse(resp *QuantifyResponse, post *dataset.Conditional, schema *dataset.Schema) ([]byte, error) {
	head, err := json.Marshal(&responseHead{
		Digest:               resp.Digest,
		Cache:                resp.Cache,
		Scheme:               resp.Scheme,
		KnowledgeApplied:     resp.KnowledgeApplied,
		Eps:                  resp.Eps,
		MaxDisclosure:        resp.MaxDisclosure,
		PosteriorEntropyBits: resp.PosteriorEntropyBits,
	})
	if err != nil {
		return nil, err
	}
	bp := bodyBufs.Get().(*[]byte)
	b := append((*bp)[:0], head[:len(head)-1]...)
	defer func() {
		*bp = b
		bodyBufs.Put(bp)
	}()
	b = append(b, `,"posterior":`...)
	if b, err = appendPosterior(b, post, schema); err != nil {
		return nil, err
	}
	tail, err := json.Marshal(&responseTail{
		Solver:    resp.Solver,
		Audit:     resp.Audit,
		TimingsMS: resp.TimingsMS,
		ElapsedMS: resp.ElapsedMS,
	})
	if err != nil {
		return nil, err
	}
	b = append(b, ',')
	b = append(b, tail[1:]...)
	b = append(b, '\n')
	return append(make([]byte, 0, len(b)), b...), nil
}

// appendPosterior appends post as encoding/json writes the []PosteriorRow
// buildPosterior returns for it.
func appendPosterior(b []byte, post *dataset.Conditional, schema *dataset.Schema) ([]byte, error) {
	qiPos := schema.QIIndices()
	qiAttrs := make([]*dataset.Attribute, len(qiPos))
	qiNames := make([]string, len(qiPos))
	for i, pos := range qiPos {
		qiAttrs[i] = schema.Attr(pos)
		qiNames[i] = qiAttrs[i].Name
	}
	qiKeys, qiOrder := mapKeys(qiNames)
	// qiVals[i][code] is attribute i's quoted value, filled on first use.
	qiVals := make([][][]byte, len(qiAttrs))
	for i, a := range qiAttrs {
		qiVals[i] = make([][]byte, a.Cardinality())
	}
	sa := schema.SA()
	saNames := make([]string, post.NumSA())
	for s := range saNames {
		saNames[s] = sa.Value(s)
	}
	saKeys, saOrder := mapKeys(saNames)

	var memo valueMemo
	u := post.Universe()
	b = append(b, '[')
	for qid := 0; qid < u.Len(); qid++ {
		if qid > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"qi":{`...)
		codes := u.Codes(qid)
		for j, i := range qiOrder {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, qiKeys[j]...)
			v := qiVals[i][codes[i]]
			if v == nil {
				v = quote(qiAttrs[i].Value(codes[i]))
				qiVals[i][codes[i]] = v
			}
			b = append(b, v...)
		}
		b = append(b, `},"p":{`...)
		row := post.Row(qid)
		for j, s := range saOrder {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, saKeys[j]...)
			var err error
			if b, err = memo.append(b, row[s]); err != nil {
				return b, err
			}
		}
		b = append(b, "}}"...)
	}
	return append(b, ']'), nil
}

// valueMemo remembers where in the body a cell value's text was last
// written, keyed by the value's bits, so that each distinct value of a
// posterior is formatted once per response: most cells are 0, and the
// rest take few values. It is direct-mapped; a value whose slot another
// value took is formatted again, which costs time and changes no byte.
type valueMemo [256]struct {
	bits     uint64
	off, end int
}

// append appends f as appendFloat does.
func (m *valueMemo) append(b []byte, f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	e := &m[(bits*0x9e3779b97f4a7c15)>>56]
	if e.end > 0 && e.bits == bits {
		return append(b, b[e.off:e.end]...), nil
	}
	off := len(b)
	b, err := appendFloat(b, f)
	if err == nil {
		e.bits, e.off, e.end = bits, off, len(b)
	}
	return b, err
}

// mapKeys returns the quoted `"name":` keys of a map filled from names,
// which are distinct, in encoding/json's key order, and the index of the
// name behind each key.
func mapKeys(names []string) (keys [][]byte, order []int) {
	order = make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return names[order[x]] < names[order[y]] })
	keys = make([][]byte, len(order))
	for j, i := range order {
		keys[j] = append(quote(names[i]), ':')
	}
	return keys, order
}

// quote returns s as encoding/json writes a string.
func quote(s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return q
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with
// the exponent's leading zero dropped. NaN and ±Inf fail with the error
// encoding/json returns for them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// encodeBatch renders a batch response, without a trailing newline.
// Each successful variant's Response must be a finished quantify body:
// compact JSON in encoding/json's escaping, which re-encoding would
// only copy, so it is spliced in as is.
func encodeBatch(resp *BatchQuantifyResponse) ([]byte, error) {
	env := *resp
	env.Variants = []BatchVariantResult{}
	shell, err := json.Marshal(&env)
	if err != nil {
		return nil, err
	}
	// shell ends `"variants":[],"elapsed_ms":<number>}`, and a number
	// holds no ']': the last one closes the variants array.
	cut := bytes.LastIndexByte(shell, ']')
	size := len(shell)
	for _, v := range resp.Variants {
		size += len(v.Response) + len(v.SolveID) + 64 // + index and keys
	}
	b := append(make([]byte, 0, size), shell[:cut]...)
	for i, v := range resp.Variants {
		if i > 0 {
			b = append(b, ',')
		}
		body := v.Response
		v.Response = nil
		vb, err := json.Marshal(&v)
		if err != nil {
			return nil, err
		}
		if len(body) == 0 {
			b = append(b, vb...)
			continue
		}
		// Response follows index and solve_id, and a variant with a
		// response has no error after it.
		b = append(b, vb[:len(vb)-1]...)
		b = append(b, `,"response":`...)
		b = append(b, body...)
		b = append(b, '}')
	}
	return append(b, shell[cut:]...), nil
}

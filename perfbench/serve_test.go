package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"privacymaxent/internal/audit"
	"privacymaxent/internal/server"
)

func TestDecodeResponseSkipsPosterior(t *testing.T) {
	for _, withAudit := range []bool{false, true} {
		resp := server.QuantifyResponse{
			Digest:           "abc",
			Cache:            "hit",
			KnowledgeApplied: 3,
			MaxDisclosure:    0.5,
			Posterior: []server.PosteriorRow{
				{QI: map[string]string{"a0": "x], \"solver\":"}, P: map[string]float64{"s0": 0.25, "s1": 0.75}},
				{QI: map[string]string{"a0": "y"}, P: map[string]float64{"s0": 1}},
			},
			Solver:    server.SolverStats{Algorithm: "lbfgs", Iterations: 7, Evaluations: 9, Converged: true, Components: 2},
			TimingsMS: map[string]float64{"formulate": 0.5, "solve": 2.25, "score": 0.125},
			ElapsedMS: 12.5,
		}
		if withAudit {
			resp.Audit = &audit.SolveAudit{}
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		var want wireResponse
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("audit=%v: decodeResponse = %+v, full decode %+v", withAudit, got, want)
		}
		if (len(got.Audit) > 0 && string(got.Audit) != "null") != withAudit {
			t.Errorf("audit=%v: audit field %q", withAudit, got.Audit)
		}
	}
	// Without the markers it falls back to a full decode.
	got, err := decodeResponse([]byte(`{"cache":"miss","elapsed_ms":3}`))
	if err != nil || got.Cache != "miss" || got.ElapsedMS != 3 {
		t.Errorf("fallback decode = %+v, %v", got, err)
	}
}

func TestRequestBodies(t *testing.T) {
	pub := &publication{
		published: []byte(`{"qi":[],"sa":{},"buckets":[]}`),
		knowledge: [][]byte{[]byte(`[{"if":{"a0":"x"},"then":"s0","p":0.5}]`), []byte(`[]`), []byte(`[{"if":{"a1":"y"},"then":"s1","p":1}]`)},
	}
	var q server.QuantifyRequest
	if err := json.Unmarshal(request{kind: kindHit, pub: pub, sets: []int{2}}.body(), &q); err != nil {
		t.Fatal(err)
	}
	if string(q.Knowledge) != string(pub.knowledge[2]) || string(q.Published) != string(pub.published) {
		t.Errorf("quantify body carries %s / %s", q.Published, q.Knowledge)
	}
	var bq server.BatchQuantifyRequest
	if err := json.Unmarshal(request{kind: kindBatch, pub: pub, sets: []int{0, 2, 1}}.body(), &bq); err != nil {
		t.Fatal(err)
	}
	if len(bq.Variants) != 3 || string(bq.Variants[1].Knowledge) != string(pub.knowledge[2]) {
		t.Errorf("batch body variants %+v", bq.Variants)
	}
	for kind, path := range map[reqKind]string{kindHit: "/v1/quantify", kindMiss: "/v1/quantify", kindBatch: "/v1/quantify/batch", kindAudit: "/v1/quantify?audit=1"} {
		if got := (request{kind: kind}).path(); got != path {
			t.Errorf("%s path %s, want %s", kindNames[kind], got, path)
		}
	}
}

func TestMixAndStages(t *testing.T) {
	count := map[reqKind]int{}
	for _, k := range blockKinds {
		count[k]++
	}
	if len(blockKinds) != 50 || count[kindHit] != 40 || count[kindMiss] != 4 || count[kindBatch] != 3 || count[kindAudit] != 3 {
		t.Errorf("block mix %v over %d requests", count, len(blockKinds))
	}
	st := wireStages(map[string]float64{"score": 1, "prepare": 2, "solve": 3, "other": 4})
	want := []stage{{"core.prepare", 2e6}, {"maxent.solve", 3e6}, {"metrics.score", 1e6}}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("wireStages = %v, want %v", st, want)
	}
}

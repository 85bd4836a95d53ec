package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.quantify", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "constraint.formulate", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "maxent.solve", Start: 20, End: 70},
		{ID: 4, Parent: 3, Name: "inner", Start: 30, End: 40},
		// Overlapping children count once; a child sticking out of its
		// parent counts only inside it.
		{ID: 5, Name: "http.batch", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "maxent.solve", Start: 210, End: 260},
		{ID: 7, Parent: 5, Name: "maxent.solve", Start: 240, End: 320},
		{ID: 8, Name: "open", Start: 5, End: -1},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"core.quantify":        {self: 40, count: 1},
		"constraint.formulate": {self: 10, count: 1},
		"maxent.solve":         {self: 40 + 50 + 80, count: 3},
		"inner":                {self: 10, count: 1},
		"http.batch":           {self: 10, count: 1},
	} {
		if got[name] != want {
			t.Errorf("%s: got %+v, want %+v", name, got[name], want)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span contributed self time")
	}
}

func TestTracerStagesAndNil(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(0)
	off.stages(0, time.Now(), []stage{{"maxent.solve", time.Millisecond}})
	if len(off.selfTimes()) != 0 {
		t.Error("nil tracer recorded spans")
	}

	tr := newTracer("test")
	start := time.Now()
	id := tr.record("http.hit", 0, start, start.Add(10*time.Millisecond))
	tr.stages(id, start, []stage{{"constraint.formulate", time.Millisecond}, {"maxent.solve", 3 * time.Millisecond}})
	self := tr.selfTimes()
	if self["http.hit"].self != 6*time.Millisecond {
		t.Errorf("http.hit self = %v, want 6ms", self["http.hit"].self)
	}
	if got := self["maxent.solve"].meanMS(); got != 3 {
		t.Errorf("maxent.solve mean = %v ms, want 3", got)
	}
	if (layerTime{}).meanMS() != 0 {
		t.Error("a layer with no spans should report 0")
	}
}

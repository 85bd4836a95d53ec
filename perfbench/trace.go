package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary: the benchmark's own
// files open one around each call they make into the program, and lay
// the program's reported per-stage timings out as its children.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span id 0.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with explicit bounds.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// stage is one entry of a per-stage timing breakdown the program reports
// (core.Report.Timings, or a served response's timings_ms).
type stage struct {
	name string // layer span name, e.g. "maxent.solve"
	dur  time.Duration
}

// stageSpans maps the program's stage names to the layer span names.
var stageSpans = map[string]string{
	"prepare":   "core.prepare",
	"formulate": "constraint.formulate",
	"solve":     "maxent.solve",
	"score":     "metrics.score",
	"audit":     "audit.build",
}

// stages lays reported stage timings out back to back as children of
// parent, starting at start. The program measures the stages, not their
// placement; only their lengths enter the parent's self time.
func (t *tracer) stages(parent int, start time.Time, st []stage) {
	if t == nil {
		return
	}
	at := start
	for _, s := range st {
		t.record(s.name, parent, at, at.Add(s.dur))
		at = at.Add(s.dur)
	}
}

// layerTime is a span name's accumulated self time.
type layerTime struct {
	self  time.Duration
	count int
}

// meanMS is the mean self time per span in milliseconds.
func (l layerTime) meanMS() float64 { return ratio(ms(l.self), float64(l.count)) }

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of it its children's union covers — and the
// number of spans.
func (t *tracer) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		lt := out[s.Name]
		lt.self += time.Duration(self)
		lt.count++
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of [lo, hi) that the union of the spans'
// intervals covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeJSONL writes the environment record, then one span per line.
func (t *tracer) writeJSONL(path string, env envRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

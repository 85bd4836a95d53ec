package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35},
		{25, 20},     // rank 1 exactly
		{40, 29},     // rank 1.6: 20 + 0.6·(35−20)
		{95, 48},     // rank 3.8: 40 + 0.8·(50−40)
		{-5, 15},     // clamped
		{120, 50},    // clamped
		{62.5, 37.5}, // rank 2.5
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Order of the sample does not matter and it is not modified.
	ys := []float64{50, 15, 40, 35, 20}
	if got := percentile(ys, 50); got != 35 {
		t.Errorf("unsorted median = %v, want 35", got)
	}
	if ys[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-sample p95 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should have no percentile")
	}
	// An even sample's median averages the middle pair.
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-sample median = %v, want 2.5", got)
	}
}

func TestDueOffsets(t *testing.T) {
	for _, c := range []struct {
		rate float64
		d    time.Duration
		n    int
	}{
		{10, time.Second, 10},           // 0, 0.1, …, 0.9
		{10, 20 * time.Second, 200},     // whole blocks of the serve mix
		{3, time.Second, 3},             // 0, 1/3, 2/3
		{4, 1100 * time.Millisecond, 5}, // 1.0 < 1.1 starts inside the window
		{8, 0, 0},
	} {
		got := dueOffsets(c.rate, c.d)
		if len(got) != c.n {
			t.Errorf("dueOffsets(%v, %v) has %d slots, want %d", c.rate, c.d, len(got), c.n)
			continue
		}
		for i, off := range got {
			want := time.Duration(float64(i) / c.rate * float64(time.Second))
			if off != want || off >= c.d {
				t.Errorf("dueOffsets(%v, %v)[%d] = %v, want %v inside the window", c.rate, c.d, i, off, want)
			}
		}
	}
}

func TestTimingArithmetic(t *testing.T) {
	due := time.Unix(100, 0)
	tm := timing{due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(50 * time.Millisecond)}
	if tm.late() != 3*time.Millisecond {
		t.Errorf("late = %v, want 3ms", tm.late())
	}
	// Latency counts from the due time, lateness included.
	if tm.latency() != 50*time.Millisecond {
		t.Errorf("latency = %v, want 50ms", tm.latency())
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	// One worker, requests due every 10ms, the first one stalls for 60ms:
	// the requests queued behind it are sent late, and their latency,
	// timed from the due time, includes that wait.
	offsets := dueOffsets(100, 40*time.Millisecond)
	timings := openLoop(offsets, 1, func(i int) time.Time {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return time.Now()
	})
	if len(timings) != 4 {
		t.Fatalf("%d timings, want 4", len(timings))
	}
	for i, tm := range timings {
		if tm.sent.Before(tm.due) {
			t.Errorf("request %d sent before it was due", i)
		}
		if tm.latency() < tm.done.Sub(tm.sent) {
			t.Errorf("request %d: latency %v shorter than its service time", i, tm.latency())
		}
	}
	if late := timings[1].late(); late < 40*time.Millisecond {
		t.Errorf("request 1 lateness %v, want at least the 50ms stall minus slack", late)
	}
	if lat := timings[3].latency(); lat < 20*time.Millisecond {
		t.Errorf("request 3 latency %v does not include the stall it waited out", lat)
	}
	for i := 1; i < len(timings); i++ {
		if timings[i].due.Sub(timings[i-1].due) != 10*time.Millisecond {
			t.Errorf("due times %d and %d are not 10ms apart", i-1, i)
		}
	}
}

func TestOpenLoopBoundsConcurrency(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	openLoop(dueOffsets(1000, 20*time.Millisecond), 2, func(int) time.Time {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return time.Now()
	})
	if peak > 2 {
		t.Errorf("%d requests in flight, want at most 2 workers' worth", peak)
	}
}

func TestClosedLoop(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	n, elapsed := closedLoop(30*time.Millisecond, 3, func(i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	})
	if n != len(seen) {
		t.Errorf("reported %d requests, saw %d distinct sequence numbers", n, len(seen))
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Errorf("sequence number %d skipped", i)
		}
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v shorter than the phase", elapsed)
	}
	// Even a phase that is already over sends one request per worker.
	if n, _ := closedLoop(0, 2, func(int) {}); n != 2 {
		t.Errorf("zero-length phase sent %d requests, want 2", n)
	}
}

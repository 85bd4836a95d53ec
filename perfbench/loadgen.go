package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator drives the serve workload from one process with a
// fixed number of workers, each holding one connection.
//
// Open loop: requests are due on a fixed schedule whatever the system
// does, as independent users would send them. A dispatcher hands each
// request to a free worker at its due time; when every worker is busy
// the hand-off waits, and that wait is the generator's lateness. Latency
// is timed from the due time, so a stall is charged to every request it
// delays, not only to the one it hit.
//
// Closed loop: each worker sends its next request as soon as the previous
// one completes, as callers that wait for a reply would; it measures the
// throughput the system sustains at saturation.

// timing is one request's schedule record.
type timing struct {
	due, sent, done time.Time
}

// latency is the time from due to completion.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how long after its due time the request was sent.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

// dueOffsets returns the open-loop schedule: request i is due at i/rate
// after the start, for every i with i/rate < d.
func dueOffsets(rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Ceil(d.Seconds()*rate)))
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends do(i) for i = 0..len(offsets)-1 at start+offsets[i]
// over workers concurrent workers, and returns each request's timing. do
// returns when its response completed, so that work after the last byte
// (decoding, bookkeeping) is not charged to the request.
func openLoop(offsets []time.Duration, workers int, do func(i int) time.Time) []timing {
	timings := make([]timing, len(offsets))
	jobs := make(chan int) // unbuffered: a send waits for a free worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				timings[i].sent = time.Now()
				timings[i].done = do(i)
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		timings[i].due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return timings
}

// closedLoop runs workers workers, each calling do with the next
// sequence number until d has passed (at least once each), and returns
// how many requests completed and the elapsed time until the last one
// did.
func closedLoop(d time.Duration, workers int, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return int(next.Load()), time.Since(start)
}

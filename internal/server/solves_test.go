package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"privacymaxent/internal/telemetry"
)

// TestDoneRingReleasesDropped: the finished-solve ring keeps exactly its
// retention reachable. A solve pushed out of the window must become
// garbage, since its result frame holds the whole response body.
func TestDoneRingReleasesDropped(t *testing.T) {
	const retention, finished = 4, 12
	r := newSolveRegistry(telemetry.NewRegistry(), retention)
	var collected atomic.Int64
	for i := 0; i < finished; i++ {
		ls := r.begin("0123456789abcdef", "req", "", 0, 0, false)
		runtime.SetFinalizer(ls, func(*liveSolve) { collected.Add(1) })
		r.finish(ls, []byte("{}\n"), nil)
	}

	want := int64(finished - retention)
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	// More cycles give a wrongly collected window entry time to show.
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d finished solves were collected, want %d (retention %d)", got, finished, want, retention)
	}
	if got := len(r.snapshot()); got != retention {
		t.Fatalf("ring holds %d solves, want %d", got, retention)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"privacymaxent/internal/history"
	"privacymaxent/internal/telemetry"
)

// The live solve registry is the server's in-flight introspection table:
// one liveSolve per single-flight leader, fed by the maxent lifecycle
// events (solve.start, decompose, presolve, component.done, solve.done,
// solve.failed) and the per-iteration solver trace via the
// telemetry.SolveObserver the leader installs in its context. The
// registry powers three surfaces:
//
//   - GET /debug/solves — a JSON snapshot of every live (and recently
//     finished) solve with iteration counts, current ∞-grad and
//     component progress;
//   - GET /v1/solves/{id}/events — an SSE stream of one solve's
//     lifecycle frames plus sampled iteration frames;
//   - POST /v1/quantify?stream=1 — the same stream, entered at request
//     time, terminated by a frame carrying the final response bytes.
//
// Iteration sampling: counters (iterations, grad, objective) update on
// every optimizer iteration, but an SSE "iteration" frame is emitted only
// for a component's first iteration and then at most once per
// iterationFrameInterval — a client watching a 10⁵-iteration solve sees
// a steady trickle, not a firehose, while /debug/solves always reads the
// exact live counters.

// iterationFrameInterval is the minimum spacing between emitted
// iteration SSE frames (per solve, across components).
const iterationFrameInterval = 100 * time.Millisecond

// defaultDoneRetention bounds the ring of finished solves kept for
// subscribe-after-done replay (a streamed request that lost the
// single-flight race, or a client connecting just as the solve ends).
// Overridable per server via Config.DoneRing (the -done-ring flag).
const defaultDoneRetention = 32

// sseFrame is one server-sent event: an event name and a single-line
// JSON payload.
type sseFrame struct {
	event string
	data  []byte
}

// terminalFrame reports whether the frame ends its stream.
func (f sseFrame) terminal() bool { return f.event == "result" || f.event == "error" }

// liveSolve tracks one single-flight solve. Hot-path progress lives in
// atomics (SolveIteration runs once per optimizer iteration, possibly
// from several component goroutines at once); lifecycle state, the frame
// replay log and the subscriber set live under mu.
type liveSolve struct {
	id        string
	requestID string
	digest    string
	// scheme names the publication scheme the request declared; empty
	// for the classic anatomy default (absent scheme field).
	scheme    string
	knowledge int
	eps       float64
	audit     bool
	started   time.Time
	// recovered marks an entry reconstructed from the history journal
	// after a restart rather than observed live; such entries carry no
	// event replay beyond a synthesized "recovered" frame, and their
	// elapsed time is the journaled one, frozen.
	recovered bool

	iterations     atomic.Int64
	gradBits       atomic.Uint64 // float64 bits of the last ∞-grad
	objBits        atomic.Uint64 // float64 bits of the last objective
	componentsDone atomic.Int64
	componentsTot  atomic.Int64
	variables      atomic.Int64
	reducedDim     atomic.Int64 // presolved row count the optimizer ran on
	reusedComps    atomic.Int64 // components copied from a delta baseline
	dirtyComps     atomic.Int64 // components a delta solve re-solved
	lastFrameNS    atomic.Int64 // unix-nano of the last iteration frame

	mu        sync.Mutex
	state     string // "queued" → "running" → "done" | "failed"
	queueWait time.Duration
	frames    []sseFrame             // replay log, terminal frame last
	subs      map[chan sseFrame]bool // live subscribers
	closed    bool                   // terminal frame delivered
	// doneElapsed freezes the solve's wall clock at finish, so a finished
	// (or recovered) entry in /debug/solves stops aging.
	doneElapsed time.Duration
}

// SolveEvent implements telemetry.SolveObserver: lifecycle events become
// SSE frames and update the component counters the JSON snapshot reads.
func (ls *liveSolve) SolveEvent(name string, attrs ...telemetry.Attr) {
	switch name {
	case "solve.start":
		for _, a := range attrs {
			switch a.Key {
			case "variables":
				if v, ok := a.Value.(int); ok {
					ls.variables.Store(int64(v))
				}
			}
		}
	case "solve.done":
		for _, a := range attrs {
			switch a.Key {
			case "reduced_dual_dim":
				if v, ok := a.Value.(int); ok {
					ls.reducedDim.Store(int64(v))
				}
			case "reused_components":
				if v, ok := a.Value.(int); ok {
					ls.reusedComps.Store(int64(v))
				}
			case "dirty_components":
				if v, ok := a.Value.(int); ok {
					ls.dirtyComps.Store(int64(v))
				}
			}
		}
	case "decompose":
		for _, a := range attrs {
			if a.Key == "components" {
				if v, ok := a.Value.(int); ok {
					ls.componentsTot.Store(int64(v))
				}
			}
		}
	case "component.done":
		ls.componentsDone.Add(1)
	}
	ls.emit(sseFrame{event: name, data: ls.eventJSON(name, attrs)})
}

// SolveIteration implements telemetry.SolveObserver: every iteration
// updates the live counters; a frame is emitted only at the sampling
// cadence (see iterationFrameInterval).
func (ls *liveSolve) SolveIteration(component, iteration int, objective, gradNorm float64) {
	if iteration > 0 {
		ls.iterations.Add(1)
	}
	ls.gradBits.Store(math.Float64bits(gradNorm))
	ls.objBits.Store(math.Float64bits(objective))

	now := time.Now().UnixNano()
	last := ls.lastFrameNS.Load()
	if iteration != 1 && now-last < int64(iterationFrameInterval) {
		return
	}
	if !ls.lastFrameNS.CompareAndSwap(last, now) {
		return // another component just emitted; skip this sample
	}
	data, _ := json.Marshal(map[string]any{
		"solve_id":   ls.id,
		"component":  component,
		"iteration":  iteration,
		"objective":  objective,
		"grad_norm":  gradNorm,
		"elapsed_ms": ls.elapsedMS(),
	})
	ls.emit(sseFrame{event: "iteration", data: data})
}

// eventJSON renders a lifecycle event's payload: the solve ID and
// elapsed time plus the event's own attributes.
func (ls *liveSolve) eventJSON(name string, attrs []telemetry.Attr) []byte {
	m := make(map[string]any, len(attrs)+3)
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	m["event"] = name
	m["solve_id"] = ls.id
	m["elapsed_ms"] = ls.elapsedMS()
	data, _ := json.Marshal(m)
	return data
}

// elapsedMS is the solve's wall clock: live solves age, finished (and
// recovered) solves report the frozen at-completion value.
func (ls *liveSolve) elapsedMS() float64 {
	ls.mu.Lock()
	frozen := ls.doneElapsed
	ls.mu.Unlock()
	if frozen > 0 {
		return float64(frozen.Nanoseconds()) / 1e6
	}
	return float64(time.Since(ls.started).Nanoseconds()) / 1e6
}

// emit appends a frame to the replay log and fans it out to the live
// subscribers. Subscriber channels are buffered and dropped-from when
// full — a slow SSE client loses iteration samples, never blocks the
// solve. Terminal frames close the stream: subsequent subscribers get
// the full replay and an already-closed channel.
func (ls *liveSolve) emit(f sseFrame) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return
	}
	ls.frames = append(ls.frames, f)
	for ch := range ls.subs {
		select {
		case ch <- f:
		default: // slow client: drop the frame rather than stall the solve
		}
	}
	if f.terminal() {
		ls.closed = true
		for ch := range ls.subs {
			close(ch)
		}
		ls.subs = nil
	}
}

// subscribe returns the frames emitted so far and a channel for the
// rest. When the solve already finished, the channel is nil and the
// replay ends with the terminal frame.
func (ls *liveSolve) subscribe() (replay []sseFrame, ch chan sseFrame) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	replay = append([]sseFrame(nil), ls.frames...)
	if ls.closed {
		return replay, nil
	}
	ch = make(chan sseFrame, 256)
	if ls.subs == nil {
		ls.subs = make(map[chan sseFrame]bool)
	}
	ls.subs[ch] = true
	return replay, ch
}

// unsubscribe detaches a subscriber channel (no-op after terminal close).
func (ls *liveSolve) unsubscribe(ch chan sseFrame) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.subs != nil && ls.subs[ch] {
		delete(ls.subs, ch)
		close(ch)
	}
}

// status snapshots the solve for the /debug/solves table.
func (ls *liveSolve) status() SolveStatus {
	ls.mu.Lock()
	state := ls.state
	queueWait := ls.queueWait
	ls.mu.Unlock()
	return SolveStatus{
		ID:               ls.id,
		RequestID:        ls.requestID,
		State:            state,
		Recovered:        ls.recovered,
		Digest:           ls.digest,
		Scheme:           ls.scheme,
		Knowledge:        ls.knowledge,
		Eps:              ls.eps,
		Audit:            ls.audit,
		Variables:        ls.variables.Load(),
		Iterations:       ls.iterations.Load(),
		GradNorm:         math.Float64frombits(ls.gradBits.Load()),
		Objective:        math.Float64frombits(ls.objBits.Load()),
		ComponentsDone:   ls.componentsDone.Load(),
		ComponentsTotal:  ls.componentsTot.Load(),
		ReducedDualDim:   ls.reducedDim.Load(),
		ReusedComponents: ls.reusedComps.Load(),
		DirtyComponents:  ls.dirtyComps.Load(),
		QueueWaitMS:      float64(queueWait.Nanoseconds()) / 1e6,
		ElapsedMS:        ls.elapsedMS(),
	}
}

// solveRegistry owns the live table and the finished ring.
type solveRegistry struct {
	reg       *telemetry.Registry // solves_live gauge
	retention int                 // finished-ring capacity

	mu   sync.Mutex
	seq  int64
	live map[string]*liveSolve
	done []*liveSolve // most recent last, capped at retention
}

func newSolveRegistry(reg *telemetry.Registry, retention int) *solveRegistry {
	if retention <= 0 {
		retention = defaultDoneRetention
	}
	return &solveRegistry{reg: reg, retention: retention, live: make(map[string]*liveSolve)}
}

// begin registers a new solve in state "queued" and returns its handle.
// The ID is the digest prefix plus a monotonic sequence number — stable,
// unique for the daemon's lifetime, and greppable back to the cache key.
func (r *solveRegistry) begin(digest, requestID, schemeName string, knowledge int, eps float64, wantAudit bool) *liveSolve {
	r.mu.Lock()
	r.seq++
	short := digest
	if len(short) > 12 {
		short = short[:12]
	}
	ls := &liveSolve{
		id:        fmt.Sprintf("%s-%d", short, r.seq),
		requestID: requestID,
		digest:    digest,
		scheme:    schemeName,
		knowledge: knowledge,
		eps:       eps,
		audit:     wantAudit,
		started:   time.Now(),
		state:     "queued",
	}
	r.live[ls.id] = ls
	n := len(r.live)
	r.mu.Unlock()
	r.reg.Gauge("pmaxentd_solves_live").Set(float64(n))
	return ls
}

// abort removes a solve that never ran — the caller lost the
// single-flight race and is a follower of someone else's solve.
func (r *solveRegistry) abort(ls *liveSolve) {
	r.mu.Lock()
	delete(r.live, ls.id)
	n := len(r.live)
	r.mu.Unlock()
	r.reg.Gauge("pmaxentd_solves_live").Set(float64(n))
}

// markRunning transitions queued → running once the admission slot is
// held, recording how long the solve waited in line.
func (r *solveRegistry) markRunning(ls *liveSolve, queueWait time.Duration) {
	ls.mu.Lock()
	ls.state = "running"
	ls.queueWait = queueWait
	ls.mu.Unlock()
}

// finish records the terminal outcome and emits the stream's last frame:
// "result" carrying the exact response bytes on success, "error" with
// the failure otherwise. The solve moves from the live table to the
// finished ring so late subscribers still get a full replay.
func (r *solveRegistry) finish(ls *liveSolve, body []byte, err error) {
	ls.mu.Lock()
	if err != nil {
		ls.state = "failed"
	} else {
		ls.state = "done"
	}
	ls.doneElapsed = time.Since(ls.started)
	ls.mu.Unlock()

	if err != nil {
		data, _ := json.Marshal(map[string]any{
			"solve_id": ls.id,
			"error":    err.Error(),
		})
		ls.emit(sseFrame{event: "error", data: data})
	} else {
		ls.emit(sseFrame{event: "result", data: bytes.TrimRight(body, "\n")})
	}

	r.mu.Lock()
	delete(r.live, ls.id)
	r.retire(ls)
	n := len(r.live)
	r.mu.Unlock()
	r.reg.Gauge("pmaxentd_solves_live").Set(float64(n))
}

// adopt seeds the finished ring with a solve recovered from the history
// journal: /debug/solves and GET /v1/solves/{id}/events keep answering
// for pre-restart solves. The entry is already terminal — its replay is
// a single synthesized "recovered" frame (the original event stream died
// with the old process) and its elapsed time is the journaled one,
// frozen. Call in journal order (oldest first) before serving traffic.
func (r *solveRegistry) adopt(rec history.Record) {
	state := "done"
	if rec.Failed() {
		state = "failed"
	}
	ls := &liveSolve{
		id:          rec.SolveID,
		requestID:   rec.RequestID,
		digest:      rec.Digest,
		scheme:      rec.Scheme,
		knowledge:   rec.Knowledge,
		eps:         rec.Eps,
		audit:       rec.Audited,
		started:     time.Unix(0, rec.StartUnixNS),
		recovered:   true,
		state:       state,
		queueWait:   time.Duration(rec.QueueWaitMS * 1e6),
		doneElapsed: time.Duration(rec.ElapsedMS * 1e6),
	}
	if ls.doneElapsed <= 0 {
		ls.doneElapsed = time.Nanosecond // freeze even zero-length records
	}
	if s := rec.Solver; s != nil {
		ls.iterations.Store(int64(s.Iterations))
		ls.variables.Store(int64(s.Variables))
		ls.componentsTot.Store(int64(s.Components))
		ls.componentsDone.Store(int64(s.Components))
		ls.reducedDim.Store(int64(s.ReducedDualDim))
		ls.reusedComps.Store(int64(s.ReusedComponents))
		ls.dirtyComps.Store(int64(s.DirtyComponents))
	}
	data, _ := json.Marshal(map[string]any{
		"event":      "recovered",
		"solve_id":   ls.id,
		"outcome":    rec.Outcome,
		"elapsed_ms": rec.ElapsedMS,
	})
	ls.frames = []sseFrame{{event: "recovered", data: data}}
	ls.closed = true

	r.mu.Lock()
	r.retire(ls)
	r.mu.Unlock()
}

// retire appends ls to the finished ring, dropping the oldest entries
// beyond retention. The survivors are copied down and the vacated tail
// cleared: re-slicing would leave the dropped solves, and the response
// bytes their result frames hold, reachable through the backing array.
// Callers hold r.mu.
func (r *solveRegistry) retire(ls *liveSolve) {
	r.done = append(r.done, ls)
	if over := len(r.done) - r.retention; over > 0 {
		n := copy(r.done, r.done[over:])
		clear(r.done[n:])
		r.done = r.done[:n]
	}
}

// find returns the solve with the given ID, live or recently finished.
func (r *solveRegistry) find(id string) *liveSolve {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ls, ok := r.live[id]; ok {
		return ls
	}
	for i := len(r.done) - 1; i >= 0; i-- {
		if r.done[i].id == id {
			return r.done[i]
		}
	}
	return nil
}

// snapshot lists every live solve plus the finished ring, live first,
// each group oldest first — the /debug/solves body.
func (r *solveRegistry) snapshot() []SolveStatus {
	r.mu.Lock()
	live := make([]*liveSolve, 0, len(r.live))
	for _, ls := range r.live {
		live = append(live, ls)
	}
	done := append([]*liveSolve(nil), r.done...)
	r.mu.Unlock()

	// Map order is random; sort live solves oldest first by ID sequence
	// (IDs embed the monotonic counter, but started-time is simpler).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].started.Before(live[j-1].started); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	out := make([]SolveStatus, 0, len(live)+len(done))
	for _, ls := range live {
		out = append(out, ls.status())
	}
	for _, ls := range done {
		out = append(out, ls.status())
	}
	return out
}

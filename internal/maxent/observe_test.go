package maxent

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"privacymaxent/internal/constraint"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
)

// syncWriter guards a buffer against the concurrent solve goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestConcurrentSolveEventStreams runs decomposed solves concurrently
// through one shared slog JSON handler, each solve tagged via
// Logger.With, and asserts every solve's event stream arrives complete
// and uncorrupted: one solve.start and one solve.done per solve, at
// least one presolve and one component.done, and every line valid JSON.
// Run under -race this also proves the telemetry bridge itself is safe
// for parallel solves.
func TestConcurrentSolveEventStreams(t *testing.T) {
	const solves = 8
	out := &syncWriter{}
	base := slog.New(slog.NewJSONHandler(out, nil))

	var wg sync.WaitGroup
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tbl, d, _, sys := paperSystem(t)
			s3 := tbl.Schema().SA().MustCode("Pneumonia")
			if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
				t.Error(err)
				return
			}
			ctx := telemetry.WithLogger(context.Background(), base.With("solve", i))
			sol, err := SolveContext(ctx, sys, Options{Decompose: true})
			if err != nil {
				t.Error(err)
				return
			}
			if !sol.Stats.Converged {
				t.Errorf("solve %d did not converge", i)
			}
		}(i)
	}
	wg.Wait()

	// Group events by the solve tag and check each stream.
	type stream struct {
		start, done, presolve, component int
	}
	streams := make(map[float64]*stream)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt log line: %v\n%s", err, line)
		}
		id, ok := ev["solve"].(float64)
		if !ok {
			t.Fatalf("event without solve tag: %s", line)
		}
		st := streams[id]
		if st == nil {
			st = &stream{}
			streams[id] = st
		}
		switch ev["msg"] {
		case "solve.start":
			st.start++
		case "solve.done":
			st.done++
		case "presolve":
			st.presolve++
		case "component.done":
			st.component++
		case "solve.failed":
			t.Fatalf("solve %v failed: %s", id, line)
		}
	}
	if len(streams) != solves {
		t.Fatalf("events for %d solves, want %d", len(streams), solves)
	}
	for id, st := range streams {
		if st.start != 1 || st.done != 1 {
			t.Errorf("solve %v: start=%d done=%d, want exactly 1 of each", id, st.start, st.done)
		}
		if st.presolve < 1 || st.component < 1 {
			t.Errorf("solve %v: presolve=%d component.done=%d, want ≥1 of each", id, st.presolve, st.component)
		}
	}
}

// countingObserver tallies the SolveObserver callbacks.
type countingObserver struct {
	mu         sync.Mutex
	events     map[string]int
	iterations atomic.Int64
}

func (o *countingObserver) SolveEvent(name string, attrs ...telemetry.Attr) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.events == nil {
		o.events = map[string]int{}
	}
	o.events[name]++
}

func (o *countingObserver) SolveIteration(component, iteration int, objective, gradNorm float64) {
	o.iterations.Add(1)
}

// TestSolveObserverFeed: a context observer receives the full lifecycle
// plus per-iteration trace of a decomposed solve, and installing it does
// not displace a caller-supplied solver trace.
func TestSolveObserverFeed(t *testing.T) {
	tbl, d, _, sys := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	ctx := telemetry.WithSolveObserver(context.Background(), obs)
	var traced atomic.Int64
	opts := Options{Decompose: true, Solver: solver.Options{
		Trace: func(ev solver.TraceEvent) { traced.Add(1) },
	}}
	sol, err := SolveContext(ctx, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solve.start", "decompose", "presolve", "component.done", "solve.done"} {
		if obs.events[name] == 0 {
			t.Errorf("observer never saw %s: %v", name, obs.events)
		}
	}
	if obs.events["solve.done"] != 1 {
		t.Errorf("solve.done seen %d times", obs.events["solve.done"])
	}
	if obs.iterations.Load() == 0 {
		t.Error("observer saw no iterations")
	}
	if traced.Load() == 0 {
		t.Error("caller's solver trace was displaced by the observer")
	}
	// The observer chain must see exactly what the caller's trace sees.
	if got, want := obs.iterations.Load(), traced.Load(); got != want {
		t.Errorf("observer iterations = %d, caller trace = %d", got, want)
	}
	if sol.Stats.Iterations == 0 {
		t.Error("stats report zero iterations for a solve with knowledge")
	}
}

// recordingObserver keeps every lifecycle event with its attribute keys.
type recordingObserver struct {
	mu     sync.Mutex
	events []string // "name key1,key2,…" with the keys sorted
	names  []string
}

func (o *recordingObserver) SolveEvent(name string, attrs ...telemetry.Attr) {
	keys := make([]string, len(attrs))
	for i, a := range attrs {
		keys[i] = a.Key
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events = append(o.events, eventSignature(name, keys))
	o.names = append(o.names, name)
}

func (o *recordingObserver) SolveIteration(component, iteration int, objective, gradNorm float64) {}

// eventSignature renders an event name plus its sorted attribute keys.
func eventSignature(name string, keys []string) string {
	sort.Strings(keys)
	return name + " " + strings.Join(keys, ",")
}

// loggedSignatures parses a JSON slog stream into event signatures,
// dropping the handler's own time/level/msg fields.
func loggedSignatures(t *testing.T, out string) []string {
	t.Helper()
	var sigs []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("corrupt log line: %v\n%s", err, line)
		}
		var keys []string
		for k := range ev {
			if k != "time" && k != "level" && k != "msg" {
				keys = append(keys, k)
			}
		}
		sigs = append(sigs, eventSignature(ev["msg"].(string), keys))
	}
	return sigs
}

// TestLifecycleParity: the solve-event logger and the solve observer
// receive the same lifecycle events with the same attribute keys on
// every solve path — decomposed, undecomposed, delta and boxed. Events
// are compared as multisets, since parallel components finish in any
// order.
func TestLifecycleParity(t *testing.T) {
	tbl, d, sp, base := paperSystem(t)
	s3 := tbl.Schema().SA().MustCode("Pneumonia")
	sys := base.Clone()
	if err := constraint.AddKnowledge(sys, knowledgeFor(tbl, d, 2, s3, 0.5)); err != nil {
		t.Fatal(err)
	}
	opts := Options{Decompose: true, Workers: 4}
	baseline, err := SolveContext(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	box := Inequality{Terms: ineqKnowledgeTerm(t, sp), Coeffs: []float64{1, 1}, Lo: 0, Hi: 0.04}

	solves := map[string]func(ctx context.Context) error{
		"decomposed": func(ctx context.Context) error {
			_, err := SolveContext(ctx, sys, opts)
			return err
		},
		"undecomposed": func(ctx context.Context) error {
			_, err := SolveContext(ctx, sys, Options{})
			return err
		},
		"delta": func(ctx context.Context) error {
			_, err := SolveDeltaContext(ctx, sys, &Baseline{Sys: sys, Sol: baseline}, opts)
			return err
		},
		"boxed": func(ctx context.Context) error {
			_, err := SolveWithInequalitiesContext(ctx, base, []Inequality{box}, Options{})
			return err
		},
	}
	for name, solve := range solves {
		out := &syncWriter{}
		obs := &recordingObserver{}
		ctx := telemetry.WithLogger(context.Background(), slog.New(slog.NewJSONHandler(out, nil)))
		ctx = telemetry.WithSolveObserver(ctx, obs)
		if err := solve(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		logged := loggedSignatures(t, out.String())
		observed := append([]string(nil), obs.events...)
		sort.Strings(logged)
		sort.Strings(observed)
		if !reflect.DeepEqual(logged, observed) {
			t.Errorf("%s: sinks disagree\nlogger:   %q\nobserver: %q", name, logged, observed)
		}
		if len(observed) < 3 {
			t.Errorf("%s: only %d events: %q", name, len(observed), observed)
		}
	}
}

// TestBoxedSolveFailureClosesLifecycle: a boxed solve that rejects its
// input after solve.start still finishes its lifecycle with solve.failed.
func TestBoxedSolveFailureClosesLifecycle(t *testing.T) {
	_, _, sp, sys := paperSystem(t)
	bad := Inequality{Label: "oob", Terms: []int{sp.Len()}, Coeffs: []float64{1}, Lo: 0, Hi: 1}
	obs := &recordingObserver{}
	ctx := telemetry.WithSolveObserver(context.Background(), obs)
	if _, err := SolveWithInequalitiesContext(ctx, sys, []Inequality{bad}, Options{}); err == nil {
		t.Fatal("out-of-range term accepted")
	}
	if want := []string{"solve.start", "presolve", "solve.failed"}; !reflect.DeepEqual(obs.names, want) {
		t.Fatalf("events = %q, want %q", obs.names, want)
	}
}

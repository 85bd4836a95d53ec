package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/telemetry"
)

func TestTimingsAddGetTotalMerge(t *testing.T) {
	var tm Timings
	tm.Add(StageBucketize, 2*time.Millisecond)
	tm.Add(StageSolve, 5*time.Millisecond)
	tm.Add(StageSolve, 3*time.Millisecond) // accumulates
	if got := tm.Get(StageSolve); got != 8*time.Millisecond {
		t.Fatalf("Get(solve) = %v, want 8ms", got)
	}
	if got := tm.Get("nope"); got != 0 {
		t.Fatalf("Get(absent) = %v, want 0", got)
	}
	if got := tm.Total(); got != 10*time.Millisecond {
		t.Fatalf("Total = %v, want 10ms", got)
	}
	other := Timings{{Stage: StageScore, Duration: time.Millisecond}, {Stage: StageSolve, Duration: time.Millisecond}}
	tm.Merge(other)
	if got := tm.Get(StageSolve); got != 9*time.Millisecond {
		t.Fatalf("merged Get(solve) = %v, want 9ms", got)
	}
	s := tm.String()
	for _, want := range []string{"bucketize=2ms", "solve=9ms", "score=1ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// TestRunContextTelemetry runs the end-to-end pipeline under a tracer and
// registry, then checks the report's timing breakdown covers every stage
// and the emitted spans cover every pipeline step.
func TestRunContextTelemetry(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 7})
	sink := telemetry.NewTreeSink()
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(sink))
	ctx = telemetry.WithMetrics(ctx, reg)

	q := New(Config{})
	rep, err := q.RunContext(ctx, tbl, Bound{KPos: 5, KNeg: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageBucketize, StageMine, StageTruth, StageSelect, StageFormulate, StageSolve, StageScore} {
		if rep.Timings.Get(stage) <= 0 {
			t.Errorf("stage %q missing from Timings %v", stage, rep.Timings)
		}
	}
	if rep.Timings.Total() <= 0 {
		t.Fatal("Total() not positive")
	}
	if rep.Timings.Get(StagePrepare) <= 0 {
		t.Errorf("prepare stage missing from Timings %v", rep.Timings)
	}

	byName := map[string]int{}
	for _, ev := range sink.Events() {
		byName[ev.Name]++
	}
	for _, name := range []string{
		"core.run", "core.bucketize", "core.mine_rules", "core.true_conditional",
		"core.select_rules", "core.quantify", "core.formulate", "core.score",
		"maxent.solve",
	} {
		if byName[name] == 0 {
			t.Errorf("no %q spans (got %v)", name, byName)
		}
	}

	if reg.Counter("pmaxent_quantify_total").Value() != 1 {
		t.Fatal("pmaxent_quantify_total != 1")
	}
	if n := reg.Histogram("pmaxent_formulate_constraints", telemetry.CountBuckets).Count(); n != 1 {
		t.Fatalf("pmaxent_formulate_constraints observed %d times, want 1", n)
	}
	if reg.Counter("pmaxent_bucketize_total").Value() != 1 {
		t.Fatal("pmaxent_bucketize_total != 1")
	}
	if reg.Counter("pmaxent_solve_total").Value() == 0 {
		t.Fatal("pmaxent_solve_total empty")
	}
}

// TestMineRulesContext: mining honours the caller's context. A cancelled
// context stops it with context.Canceled, assoc's span nests under
// core's, and the rules are the same at one and at four workers.
func TestMineRulesContext(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 7})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Config{}).MineRulesContext(cancelled, tbl); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mine err = %v, want context.Canceled", err)
	}

	sink := telemetry.NewTreeSink()
	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(sink))
	serial, err := New(Config{Solve: maxent.Options{Workers: 1}}).MineRulesContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]uint64{}
	var mineParent uint64
	for _, ev := range sink.Events() {
		ids[ev.Name] = ev.ID
		if ev.Name == "assoc.mine" {
			mineParent = ev.Parent
		}
	}
	if mineParent == 0 || mineParent != ids["core.mine_rules"] {
		t.Fatalf("assoc.mine parent = %d, want core.mine_rules' span %d", mineParent, ids["core.mine_rules"])
	}

	parallel, err := New(Config{Solve: maxent.Options{Workers: 4}}).MineRulesContext(context.Background(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("rules at 4 workers differ from 1 worker's (%d vs %d rules)", len(parallel), len(serial))
	}
}

// TestRunTimingsWithoutTelemetry: RunContext still populates the timing
// breakdown with no tracer or registry in scope.
func TestRunTimingsWithoutTelemetry(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 300, Seed: 3})
	q := New(Config{})
	rep, err := q.RunContext(context.Background(), tbl, Bound{KPos: 2, KNeg: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timings.Get(StageSolve) <= 0 || rep.Timings.Get(StageBucketize) <= 0 {
		t.Fatalf("Timings not populated without telemetry: %v", rep.Timings)
	}
}

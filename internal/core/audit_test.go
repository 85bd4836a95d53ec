package core

import (
	"context"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/audit"
)

// TestRunWithAudit: setting Config.Audit makes every quantification carry
// a full SolveAudit — trajectory included — while the default config
// leaves Report.Audit nil.
func TestRunWithAudit(t *testing.T) {
	tbl := adult.Generate(adult.Config{Records: 400, Seed: 7})
	ctx := context.Background()

	plain := New(Config{RuleSizes: []int{1}})
	rep, err := plain.RunContext(ctx, tbl, Bound{KPos: 5, KNeg: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit != nil {
		t.Fatal("audit built without Config.Audit")
	}

	audited := New(Config{RuleSizes: []int{1}, Audit: &audit.Options{Top: 3}})
	rep, err = audited.RunContext(ctx, tbl, Bound{KPos: 5, KNeg: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Audit
	if a == nil {
		t.Fatal("no audit despite Config.Audit")
	}
	if len(a.Families) == 0 || len(a.TopViolations) == 0 {
		t.Fatalf("audit missing residual breakdown: %+v", a)
	}
	if len(a.Trajectory) == 0 {
		t.Fatal("audit missing trajectory (CaptureTrace not propagated)")
	}
	if last := a.Trajectory[len(a.Trajectory)-1]; last.Index != rep.Solution.Stats.Iterations {
		t.Fatalf("final trajectory index %d != iterations %d", last.Index, rep.Solution.Stats.Iterations)
	}
	if !a.HasDuals || len(a.BindingKnowledge) == 0 {
		t.Fatalf("audit missing dual attribution: %+v", a)
	}
	if len(a.BindingKnowledge) > 3 || len(a.TopViolations) > 3 {
		t.Fatal("audit.Options.Top not honoured through core")
	}

	// Config.Audit covers every equality solve of a Prepared, delta
	// included; a per-call QuantifyOptions.Audit overrides it, and vague
	// solves are never audited.
	d, _, err := audited.BucketizeContext(ctx, tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, audited, d)
	knowledge := rep.Knowledge
	if rep, err = p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: knowledge}); err != nil || rep.Audit == nil {
		t.Fatalf("QuantifyWithOptions under Config.Audit: audit %v, err %v", rep != nil && rep.Audit != nil, err)
	}
	if rep, _, err = p.QuantifyDelta(ctx, QuantifyOptions{Knowledge: knowledge}, nil); err != nil || rep.Audit == nil {
		t.Fatalf("QuantifyDelta under Config.Audit: audit %v, err %v", rep != nil && rep.Audit != nil, err)
	}
	rep, err = p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: knowledge, Audit: &audit.Options{Top: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit == nil || len(rep.Audit.TopViolations) > 1 {
		t.Fatal("QuantifyOptions.Audit did not override Config.Audit")
	}
	rep, err = p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: knowledge, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit != nil {
		t.Fatal("vague solve carries an audit")
	}
}

package privacymaxent

import (
	"context"
	"errors"
	"strings"
	"testing"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/dataset"
)

// TestErrorTaxonomy exercises the exported sentinels through public
// entry points only: every failure class must be classifiable with
// errors.Is, never by string matching.
func TestErrorTaxonomy(t *testing.T) {
	t.Run("invalid schema: duplicate attribute", func(t *testing.T) {
		a := NewAttribute("X", QuasiIdentifier, []string{"a"})
		b := NewAttribute("X", Sensitive, []string{"s"})
		_, err := NewSchema(a, b)
		if !errors.Is(err, ErrInvalidSchema) {
			t.Fatalf("err = %v, want ErrInvalidSchema", err)
		}
	})

	t.Run("invalid schema: two sensitive attributes", func(t *testing.T) {
		a := NewAttribute("A", Sensitive, []string{"a"})
		b := NewAttribute("B", Sensitive, []string{"s"})
		_, err := NewSchema(a, b)
		if !errors.Is(err, ErrInvalidSchema) {
			t.Fatalf("err = %v, want ErrInvalidSchema", err)
		}
	})

	t.Run("no sensitive attribute", func(t *testing.T) {
		qi := NewAttribute("Q", QuasiIdentifier, []string{"a", "b"})
		schema, err := NewSchema(qi)
		if err != nil {
			t.Fatal(err)
		}
		tbl := NewTable(schema)
		tbl.MustAppend("a")
		_, err = MineRulesContext(context.Background(), tbl, MineOptions{MinSupport: 1})
		if !errors.Is(err, ErrNoSensitiveAttribute) {
			t.Fatalf("mine err = %v, want ErrNoSensitiveAttribute", err)
		}
		_, err = TrueConditional(tbl, NewUniverse(tbl))
		if !errors.Is(err, ErrNoSensitiveAttribute) {
			t.Fatalf("truth err = %v, want ErrNoSensitiveAttribute", err)
		}
	})

	t.Run("no quasi-identifier attribute", func(t *testing.T) {
		name := NewAttribute("Name", Identifier, []string{"a", "b"})
		disease := NewAttribute("Disease", Sensitive, []string{"flu", "hiv"})
		schema, err := NewSchema(name, disease)
		if err != nil {
			t.Fatal(err)
		}
		tbl := NewTable(schema)
		tbl.MustAppend("a", "flu")
		tbl.MustAppend("b", "hiv")
		_, err = MineRulesContext(context.Background(), tbl, MineOptions{MinSupport: 1})
		if !errors.Is(err, ErrInvalidSchema) {
			t.Fatalf("mine err = %v, want ErrInvalidSchema", err)
		}
	})

	t.Run("prepare rejects SA-less view", func(t *testing.T) {
		q := New(Config{})
		_, err := q.Prepare(context.Background(), nil)
		if !errors.Is(err, ErrInvalidSchema) {
			t.Fatalf("nil prepare err = %v, want ErrInvalidSchema", err)
		}
	})

	t.Run("infeasible knowledge", func(t *testing.T) {
		d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
		if err != nil {
			t.Fatal(err)
		}
		// Zero out every disease for males; males exist, so the bucket
		// invariants cannot be met.
		stmts := `[
			{"if": {"Gender": "male"}, "then": "Breast Cancer", "p": 0},
			{"if": {"Gender": "male"}, "then": "Flu", "p": 0},
			{"if": {"Gender": "male"}, "then": "Pneumonia", "p": 0},
			{"if": {"Gender": "male"}, "then": "HIV", "p": 0},
			{"if": {"Gender": "male"}, "then": "Lung Cancer", "p": 0}]`
		knowledge, err := ParseKnowledgeJSON(strings.NewReader(stmts), d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{}).Prepare(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.QuantifyWithOptions(context.Background(), QuantifyOptions{Knowledge: knowledge})
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})

	t.Run("interrupted solve", func(t *testing.T) {
		d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
		if err != nil {
			t.Fatal(err)
		}
		// Non-degenerate knowledge forces an iterative solve (pure
		// invariants can be fully pinned by presolve, which never
		// reaches a context check).
		knowledge, err := ParseKnowledgeJSON(strings.NewReader(
			`[{"if": {"Gender": "male"}, "then": "Flu", "p": 0.4}]`), d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{}).Prepare(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = p.QuantifyWithOptions(ctx, QuantifyOptions{Knowledge: knowledge})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	})

	t.Run("interrupted individuals solve", func(t *testing.T) {
		d, err := bucket.FromPartition(dataset.PaperExample(), dataset.PaperBuckets())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = New(Config{}).QuantifyIndividuals(ctx, d, nil)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
	})
}

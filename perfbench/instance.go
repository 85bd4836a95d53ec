package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
)

// The sweep and delta workloads run on the Figure 5 instance of the
// repository's figure benchmarks: a 2000-record synthetic Adult table
// (table seed 1) published under Anatomy with l = 5, and the rule pool
// mined at QI-subset sizes 1 and 2. The table is pinned rather than drawn
// from --seed: which sweep points hit the iteration cap, and so most of
// the sweep's cost, is a property of the table, and the kept Figure 5
// reference accuracies are computed on it.
const (
	instanceRecords   = 2000
	instanceTableSeed = 1
	instanceDiversity = 5
	instanceSupport   = 3
)

// instance is a generated table, its publication, ground truth, mined
// rules and the prepared invariant system.
type instance struct {
	table *dataset.Table
	data  *bucket.Bucketized
	truth *dataset.Conditional
	rules []assoc.Rule
	prep  *core.Prepared
}

// buildInstance generates and publishes a table, mines its rules and
// prepares q's invariant system, with one span per layer call.
func buildInstance(ctx context.Context, tr *tracer, q *core.Quantifier, records int, tableSeed int64, sizes []int) (*instance, error) {
	in := &instance{}
	id := tr.begin("adult.generate", 0)
	in.table = adult.Generate(adult.Config{Records: records, Seed: tableSeed})
	tr.end(id)

	id = tr.begin("bucket.anatomize", 0)
	d, _, err := bucket.Anatomize(in.table, bucket.Options{L: instanceDiversity, ExemptMostFrequent: true})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("anatomize: %w", err)
	}
	in.data = d

	if in.truth, err = dataset.TrueConditional(in.table, d.Universe()); err != nil {
		return nil, fmt.Errorf("true conditional: %w", err)
	}

	id = tr.begin("assoc.mine", 0)
	in.rules, err = assoc.Mine(in.table, assoc.Options{MinSupport: instanceSupport, Sizes: sizes, Workers: runtime.GOMAXPROCS(0)})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}

	id = tr.begin("core.prepare", 0)
	in.prep, err = q.Prepare(ctx, d)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return in, nil
}

// reportStages converts a report's timing breakdown to layer stages.
func reportStages(t core.Timings) []stage {
	out := make([]stage, 0, len(t))
	for _, st := range t {
		if name, ok := stageSpans[st.Stage]; ok {
			out = append(out, stage{name: name, dur: st.Duration})
		}
	}
	return out
}

// quantifySpan closes a core.quantify span opened at start, laying the
// report's stage timings out as its children.
func quantifySpan(tr *tracer, id int, start time.Time, rep *core.Report) {
	if rep != nil {
		tr.stages(id, start, reportStages(rep.Timings))
	}
	tr.end(id)
}

// setupLayers copies the set-up layers' per-call self times into out.
func setupLayers(out *outcome, self map[string]layerTime, rules int) {
	out.metrics["adult.generate_ms"] = self["adult.generate"].meanMS()
	out.metrics["bucket.anatomize_ms"] = self["bucket.anatomize"].meanMS()
	out.metrics["assoc.mine_ms"] = self["assoc.mine"].meanMS()
	out.metrics["assoc.rules"] = float64(rules)
	out.metrics["core.prepare_ms"] = self["core.prepare"].meanMS()
}

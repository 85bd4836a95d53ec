// Package privacymaxent is a Go implementation of Privacy-MaxEnt (Du,
// Teng, Zhu — SIGMOD 2008): a systematic method for integrating adversary
// background knowledge into the privacy quantification of bucketized
// microdata publishing.
//
// The pipeline treats every joint probability P(Q, S, B) — quasi-
// identifier value, sensitive value, bucket — as an unknown, derives the
// complete set of linear invariant equations the published data imposes,
// adds background knowledge (association rules over the data
// distribution, or statements about individuals) as further linear
// constraints, and picks the maximum-entropy distribution satisfying all
// of them. The resulting posterior P(S | Q) is the most unbiased estimate
// of what a bounded adversary can infer, and feeds the privacy scores in
// Report.
//
// Quick start:
//
//	q := privacymaxent.New(privacymaxent.Config{})
//	report, err := q.RunContext(ctx, table, privacymaxent.Bound{KPos: 50, KNeg: 50})
//
// or, for a published view and knowledge statements of your own:
//
//	p, err := q.Prepare(ctx, published)
//	report, err := p.QuantifyWithOptions(ctx, privacymaxent.QuantifyOptions{Knowledge: knowledge})
//
// This facade re-exports the library's public surface; the
// implementation lives under internal/ (dataset, bucket, assoc,
// constraint, maxent, metrics, core, individuals, experiments).
package privacymaxent

import (
	"context"
	"io"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/generalize"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
	"privacymaxent/internal/randomize"
	"privacymaxent/internal/scheme"
	"privacymaxent/internal/solver"
	"privacymaxent/internal/telemetry"
	"privacymaxent/internal/worstcase"
)

// Data model (see internal/dataset).
type (
	// Attribute is a categorical column with a privacy role.
	Attribute = dataset.Attribute
	// Role classifies attributes as ID, QI or SA.
	Role = dataset.Role
	// Schema is an ordered set of attributes with exactly one SA.
	Schema = dataset.Schema
	// Table is an encoded microdata table.
	Table = dataset.Table
	// Universe indexes the distinct QI tuples of a table.
	Universe = dataset.Universe
	// Conditional is a P(S | Q) distribution.
	Conditional = dataset.Conditional
)

// Attribute roles.
const (
	Identifier      = dataset.Identifier
	QuasiIdentifier = dataset.QuasiIdentifier
	Sensitive       = dataset.Sensitive
)

// Publishing substrate (see internal/bucket).
type (
	// Bucketized is the published view D′.
	Bucketized = bucket.Bucketized
	// BucketOptions configures the Anatomy bucketizer.
	BucketOptions = bucket.Options
)

// Background knowledge (see internal/assoc and internal/constraint).
type (
	// Rule is a positive or negative association rule Qv ⇒ s / Qv ⇒ ¬s.
	Rule = assoc.Rule
	// MineOptions configures rule mining.
	MineOptions = assoc.Options
	// DistributionKnowledge is a P(S | Qv) = p statement.
	DistributionKnowledge = constraint.DistributionKnowledge
)

// Solver (see internal/maxent and internal/solver).
type (
	// SolveOptions configures the MaxEnt solve (including
	// SolveOptions.WarmStart, a []ConstraintDual seed from a previous
	// similar solve).
	SolveOptions = maxent.Options
	// SolverOptions tunes the numerical optimizer.
	SolverOptions = solver.Options
	// Algorithm selects the dual method (Auto, LBFGS, GIS, ...).
	Algorithm = maxent.Algorithm
	// ConstraintDual pairs a constraint label with its Lagrange
	// multiplier at the solution; a slice of them (Report.Solution.Duals)
	// both measures each constraint's influence and serves as the
	// warm-start seed for the next solve of a sweep.
	ConstraintDual = maxent.ConstraintDual
)

// Dual algorithms.
const (
	Auto            = maxent.Auto
	LBFGS           = maxent.LBFGS
	SteepestDescent = maxent.SteepestDescent
	GIS             = maxent.GIS
	Newton          = maxent.Newton
)

// Pipeline (see internal/core).
type (
	// Config tunes the Privacy-MaxEnt pipeline.
	Config = core.Config
	// Quantifier runs quantifications under one Config.
	Quantifier = core.Quantifier
	// Bound is the Top-(K+, K−) background-knowledge budget.
	Bound = core.Bound
	// Report is the (bound, posterior, privacy scores) outcome.
	Report = core.Report
	// StageTimings is the per-stage wall-clock breakdown in Report.Timings.
	StageTimings = core.Timings
	// Prepared caches the data-invariant base system of a publication
	// and is the only way a knowledge set becomes a Report. Build one
	// with Quantifier.Prepare(ctx, d) (or PrepareScheme) and quantify
	// with Prepared.QuantifyWithOptions, QuantifyWithRules (a Top-(K+,
	// K−) Bound) or QuantifyDelta; each call appends only its knowledge
	// rows onto a copy-on-append overlay of the shared base. A Prepared
	// is safe for concurrent use — the pmaxentd server keeps an LRU
	// cache of them keyed by a digest of the published view.
	Prepared = core.Prepared
	// QuantifyOptions holds one prepared quantification's inputs,
	// including the vagueness Eps (Sec. 4.5).
	QuantifyOptions = core.QuantifyOptions
)

// Observability (see internal/telemetry). The pipeline entry points —
// Quantifier.RunContext, Prepare, Prepared.QuantifyWithOptions — emit spans
// to the Tracer and series to the Registry installed with WithTracer and
// WithMetrics; without them instrumentation is a no-op.
type (
	// Tracer emits nested spans for every pipeline stage.
	Tracer = telemetry.Tracer
	// Span is one timed operation with attributes.
	Span = telemetry.Span
	// Sink consumes finished span events.
	Sink = telemetry.Sink
	// SpanEvent is a finished span as delivered to a Sink.
	SpanEvent = telemetry.Event
	// Registry collects counters, gauges and histograms.
	Registry = telemetry.Registry
	// TreeSink buffers span events for human-readable tree rendering.
	TreeSink = telemetry.TreeSink
)

// NewTracer creates a tracer emitting to sink.
func NewTracer(sink Sink) *Tracer { return telemetry.NewTracer(sink) }

// NewJSONSink creates a sink writing one JSON object per finished span.
func NewJSONSink(w io.Writer) Sink { return telemetry.NewJSONSink(w) }

// NewTreeSink creates a buffering sink whose WriteTree renders the span
// hierarchy as an indented tree.
func NewTreeSink() *TreeSink { return telemetry.NewTreeSink() }

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// WithTracer installs a tracer into the context handed to the pipeline
// entry points.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return telemetry.WithTracer(ctx, t)
}

// WithMetrics installs a metrics registry into the context handed to the
// pipeline entry points.
func WithMetrics(ctx context.Context, r *Registry) context.Context {
	return telemetry.WithMetrics(ctx, r)
}

// New creates a Quantifier; the zero Config reproduces the paper's
// evaluation setup (5-diversity Anatomy buckets, minimum rule support 3,
// the Sec. 5.5 decomposition) and solves with the Auto dual algorithm.
func New(cfg Config) *Quantifier { return core.New(cfg) }

// NewAttribute builds a categorical attribute.
func NewAttribute(name string, role Role, domain []string) *Attribute {
	return dataset.NewAttribute(name, role, domain)
}

// NewSchema builds a schema, validating roles and name uniqueness.
func NewSchema(attrs ...*Attribute) (*Schema, error) { return dataset.NewSchema(attrs...) }

// NewTable creates an empty table over a schema.
func NewTable(schema *Schema) *Table { return dataset.NewTable(schema) }

// NewUniverse indexes the distinct QI tuples of a table.
func NewUniverse(t *Table) *Universe { return dataset.NewUniverse(t) }

// TrueConditional computes the ground-truth P(S|Q) from original data.
func TrueConditional(t *Table, u *Universe) (*Conditional, error) {
	return dataset.TrueConditional(t, u)
}

// Anatomize publishes a table with the Anatomy bucketizer.
//
// Deprecated: use AnatomyScheme — the PublicationScheme unification
// gives every mechanism the same Publish/Invariants surface, so the
// same mined knowledge and the same solver evaluate Anatomy, Mondrian
// and randomized response interchangeably. Anatomize remains for the
// bucket-group return value (AnatomyScheme.Publish drops it).
func Anatomize(t *Table, opts BucketOptions) (*Bucketized, [][]int, error) {
	return bucket.Anatomize(t, opts)
}

// MineRulesContext mines association rules from original data,
// strongest first. Mining stops once ctx is done, and a tracer installed
// with WithTracer records an "assoc.mine" span.
func MineRulesContext(ctx context.Context, t *Table, opts MineOptions) ([]Rule, error) {
	return assoc.MineContext(ctx, t, opts)
}

// TopK selects the Top-(K+, K−) strongest rules from a sorted rule list.
func TopK(rules []Rule, kPos, kNeg int) []Rule { return assoc.TopK(rules, kPos, kNeg) }

// EstimationAccuracy is the paper's weighted KL distance between the true
// conditional and an estimate (Sec. 7.1); lower means the adversary's
// estimate is closer to the truth.
func EstimationAccuracy(truth, estimate *Conditional) (float64, error) {
	return metrics.EstimationAccuracy(truth, estimate)
}

// MaxDisclosure is the adversary's highest single-link confidence
// max P*(s|q) under an estimated posterior.
func MaxDisclosure(estimate *Conditional) float64 { return metrics.MaxDisclosure(estimate) }

// TCloseness is the t-closeness level of a publication (max earth-mover
// distance between a bucket's SA distribution and the global one).
func TCloseness(d *Bucketized) float64 { return metrics.TCloseness(d) }

// Publication schemes (see internal/scheme): the unified interface every
// disguising mechanism implements — Publish derives the released view
// from the original table, Invariants derives the constraint rows that
// view certifies — so one Quantifier (Quantifier.PrepareScheme) and one
// mined-knowledge format evaluate Anatomy, Mondrian generalization and
// randomized response interchangeably.
type (
	// PublicationScheme is the mechanism interface.
	PublicationScheme = scheme.Scheme
	// AnatomyScheme is bucketization with l distinct SA values per
	// bucket (the identity scheme — its invariants are the classic
	// Theorem 1–3 rows).
	AnatomyScheme = scheme.Anatomy
	// MondrianScheme is Mondrian k-anonymous generalization; its
	// equivalence classes induce the buckets.
	MondrianScheme = scheme.Mondrian
	// RandomizedResponseScheme is uniform randomized response on SA; its
	// invariants include sampling-tolerance boxes, so solves route
	// through the inequality (boxed) dual.
	RandomizedResponseScheme = scheme.RandomizedResponse
	// SchemeDescriptor describes one supported scheme (name, parameter
	// schema, whether its solves are boxed).
	SchemeDescriptor = scheme.Descriptor
)

// NewAnatomyScheme returns an Anatomy scheme with bucket size l
// (l <= 0 selects the default).
func NewAnatomyScheme(l int) AnatomyScheme { return scheme.NewAnatomy(l) }

// NewMondrianScheme returns a Mondrian scheme with anonymity level k
// (k <= 0 selects the default).
func NewMondrianScheme(k int) MondrianScheme { return scheme.NewMondrian(k) }

// NewRandomizedResponseScheme returns a randomized-response scheme with
// retention probability rho and perturbation seed.
func NewRandomizedResponseScheme(rho float64, seed int64) RandomizedResponseScheme {
	return scheme.NewRandomizedResponse(rho, seed)
}

// PublicationSchemes lists the supported schemes with their parameter
// schemas, sorted by name — the same capability listing pmaxentd serves
// on GET /healthz.
func PublicationSchemes() []SchemeDescriptor { return scheme.Describe() }

// Other disguising methods (see internal/generalize, internal/randomize)
// and the deterministic worst-case baseline (internal/worstcase).
type (
	// GeneralizationClass is one Mondrian equivalence class.
	GeneralizationClass = generalize.Class
	// RandomizationMechanism is uniform randomized response on SA.
	RandomizationMechanism = randomize.Mechanism
)

// Generalize publishes the table as Mondrian k-anonymous equivalence
// classes; the returned Bucketized view feeds the same MaxEnt pipeline.
//
// Deprecated: use MondrianScheme, whose Publish returns the same view
// (Generalize remains for the equivalence-class return value) and whose
// Invariants plug the view into Quantifier.PrepareScheme alongside every
// other PublicationScheme.
func Generalize(t *Table, k int) (*Bucketized, []GeneralizationClass, error) {
	return generalize.Publish(t, k)
}

// Randomize publishes the table under randomized response with retention
// probability rho.
//
// Deprecated: use RandomizedResponseScheme, whose Publish perturbs and
// groups in one step and whose Invariants feed the same boxed solve the
// pmaxentd scheme API serves (Randomize remains for access to the raw
// perturbed table and mechanism).
func Randomize(t *Table, rho float64, seed int64) (*Table, RandomizationMechanism, error) {
	return randomize.Perturb(t, rho, seed)
}

// RandomizedPosteriorContext reconstructs the adversary's MaxEnt
// posterior from a randomized publication (z is the sampling-tolerance
// width; 0 = 3σ). Cancellation interrupts the underlying inequality
// solve (ErrInterrupted), and telemetry installed in ctx instruments it
// under a "randomize.estimate" span.
func RandomizedPosteriorContext(ctx context.Context, published *Table, mech RandomizationMechanism, z float64, opts SolveOptions) (*Conditional, error) {
	cond, _, err := randomize.EstimateContext(ctx, published, mech, z, opts)
	return cond, err
}

// WorstCaseDisclosureContext is Martin et al.'s deterministic baseline:
// the maximum posterior reachable with k negative statements about a
// target's bucket. Cancellation is checked between buckets, and a
// "worstcase.disclosure" telemetry span records the call.
func WorstCaseDisclosureContext(ctx context.Context, d *Bucketized, k int) (float64, error) {
	return worstcase.DisclosureContext(ctx, d, k)
}

// WritePublishedJSON and ReadPublishedJSON (de)serialize the published
// view D′ — exactly the information a bucketized release makes public.
func WritePublishedJSON(w io.Writer, d *Bucketized) error { return bucket.WriteJSON(w, d) }

// ReadPublishedJSON parses a published view written by WritePublishedJSON.
func ReadPublishedJSON(r io.Reader) (*Bucketized, error) { return bucket.ReadJSON(r) }

// ParseKnowledgeJSON and WriteKnowledgeJSON (de)serialize knowledge
// statements ({"if": {...}, "then": "...", "p": 0.3}).
func ParseKnowledgeJSON(r io.Reader, schema *Schema) ([]DistributionKnowledge, error) {
	return constraint.ParseKnowledgeJSON(r, schema)
}

// WriteKnowledgeJSON serializes knowledge statements for audit/replay.
func WriteKnowledgeJSON(w io.Writer, schema *Schema, ks []DistributionKnowledge) error {
	return constraint.WriteKnowledgeJSON(w, schema, ks)
}

// Package seaweed is a from-scratch reproduction of "Delay Aware Querying
// with Seaweed" (Narayanan, Donnelly, Mortier, Rowstron — Microsoft
// Research, VLDB Journal 2006): a scalable query infrastructure for large
// highly-distributed data sets that queries data in situ and handles
// endsystem unavailability by trading query delay for completeness.
//
// A Seaweed deployment stores each endsystem's data only on that
// endsystem. Queries are disseminated to every endsystem over a Pastry
// overlay; results stream back incrementally through failure-resilient
// aggregation trees as endsystems become available; and the user receives
// a completeness predictor — "80% of the rows now, 99% within an hour,
// 100% after several days" — computed from replicated metadata (per-column
// histograms plus a 48-byte availability model per endsystem) that is
// orders of magnitude smaller than the data.
//
// This package is the public facade over the implementation packages:
//
//   - Queries: the supported SQL subset (single-table SELECT with
//     SUM/COUNT/AVG/MIN/MAX, conjunctive comparison predicates, NOW()
//     arithmetic) via ParseQuery.
//   - Deployments: New builds a packet-level simulated deployment
//     of full Seaweed endsystems over a discrete-event network; InjectQuery
//     returns the predictor and the incremental result stream.
//   - Completeness studies: RunCompletenessStudy evaluates predicted versus
//     actual completeness over an availability trace at large scale, as in
//     the paper's Figures 5–8.
//   - Traces and workloads: synthetic availability traces calibrated to
//     the Farsite and Gnutella studies, and the Anemone endsystem network
//     monitoring workload (its Flow table).
//   - Analytics: the paper's closed-form scalability models comparing
//     Seaweed with centralized, DHT-replicated and PIER architectures.
//
// The examples/ directory contains runnable programs; cmd/ holds the
// experiment drivers that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md and EXPERIMENTS.md).
package seaweed

import (
	"time"

	"repro/internal/agg"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Query is a parsed Seaweed query.
type Query = relq.Query

// ParseQuery parses a query in Seaweed's SQL subset:
//
//	SELECT <AGG>(<column>|*) FROM <table> [WHERE col op expr [AND ...]]
func ParseQuery(sql string) (*Query, error) { return relq.Parse(sql) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(sql string) *Query { return relq.MustParse(sql) }

// Schema, Column and Table expose the per-endsystem relational engine for
// applications that bring their own data instead of the Anemone workload.
type (
	Schema = relq.Schema
	Column = relq.Column
	Table  = relq.Table
)

// Column types for Schema definitions.
const (
	TInt    = relq.TInt
	TString = relq.TString
)

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table { return relq.NewTable(schema) }

// Aggregate is a decomposable aggregate partial; AggKind selects the
// operator when finalizing.
type (
	Aggregate = agg.Partial
	AggKind   = agg.Kind
)

// Aggregate operators.
const (
	Count = agg.Count
	Sum   = agg.Sum
	Avg   = agg.Avg
	Min   = agg.Min
	Max   = agg.Max
)

// Predictor is a completeness predictor: expected cumulative rows against
// delay since query injection.
type Predictor = predictor.Predictor

// Availability traces and models.
type (
	AvailabilityTrace = avail.Trace
	AvailabilityModel = avail.Model
)

// FarsiteTrace generates a synthetic enterprise availability trace
// calibrated to the Farsite study the paper uses: ~81% mean availability
// with strong diurnal and weekly periodicity.
func FarsiteTrace(endsystems int, horizon time.Duration, seed int64) *AvailabilityTrace {
	return avail.GenerateFarsite(avail.DefaultFarsiteConfig(endsystems, horizon, seed))
}

// GnutellaTrace generates a synthetic high-churn availability trace
// calibrated to the Gnutella measurements (9.46e-5 departures per online
// endsystem-second).
func GnutellaTrace(endsystems int, horizon time.Duration, seed int64) *AvailabilityTrace {
	return avail.GenerateGnutella(avail.DefaultGnutellaConfig(endsystems, horizon, seed))
}

// Anemone workload generation (the paper's driving application: endsystem
// network management; every paper query reads its Flow table).
type AnemoneConfig = anemone.Config

// DefaultAnemoneConfig returns a workload configuration for the horizon.
func DefaultAnemoneConfig(horizon time.Duration, seed int64) AnemoneConfig {
	return anemone.DefaultConfig(horizon, seed)
}

// GenerateAnemone builds endsystem i's Flow table.
func GenerateAnemone(cfg AnemoneConfig, i int) *anemone.Dataset {
	return anemone.Generate(cfg, i)
}

// Cluster simulation: a full Seaweed deployment in a packet-level
// discrete-event simulator.
type (
	Cluster       = core.Cluster
	ClusterConfig = core.ClusterConfig
	QueryHandle   = core.QueryHandle
	ResultUpdate  = core.ResultUpdate
	// Subscription is a cursor over a query's result updates in
	// virtual-time order; obtain one from QueryHandle.Updates. Handles
	// also accept QueryHandle.OnUpdate callbacks, and QueryHandle.Results
	// is the whole update log.
	Subscription = core.Subscription
	// Endpoint identifies an endsystem in a cluster (its index).
	Endpoint = simnet.Endpoint
	// Node is one Seaweed endsystem within a cluster.
	Node = core.Node
	// FeedConfig enables live data updates during the simulation.
	FeedConfig = core.FeedConfig
)

// FirstLive returns an endsystem that is currently up in the cluster, for
// use as a query injector. ok is false when everything is down.
func FirstLive(c *Cluster) (Endpoint, bool) {
	for i, n := range c.Nodes {
		if n.Alive() {
			return Endpoint(i), true
		}
	}
	return 0, false
}

// DefaultClusterConfig builds the paper's configuration (MSPastry b=4,
// l=8, 30 s heartbeats; k=8 metadata replicas; m=3 vertex backups;
// CorpNet-like topology) over the trace.
func DefaultClusterConfig(trace *AvailabilityTrace, seed int64) ClusterConfig {
	return core.DefaultClusterConfig(trace, seed)
}

// builder accumulates the deployment description while options apply:
// the trace and seed feed the default-configuration derivation (workload
// horizon, accounting horizon), and the mods run over that derived
// ClusterConfig in option order.
type builder struct {
	trace *avail.Trace
	seed  int64
	mods  []func(*ClusterConfig)
}

// Option adjusts a deployment before construction. Options are thin,
// documented wrappers over ClusterConfig fields, applied in order over
// the paper-default configuration; anything they can express can also be
// done through WithConfig.
type Option func(*builder)

// WithTrace sets the availability trace the deployment runs over. New
// requires exactly this option; everything else has a default.
func WithTrace(trace *AvailabilityTrace) Option {
	return func(b *builder) {
		b.trace = trace
		b.mods = append(b.mods, func(cfg *ClusterConfig) { cfg.Trace = trace })
	}
}

// WithSeed sets the seed driving all of the deployment's randomness —
// workload generation (ClusterConfig.Workload.Seed), network loss
// (Net.Seed), overlay protocol jitter (Pastry.Seed), per-node streams
// (Node.Seed, split per endsystem) and endsystem id assignment
// (ClusterConfig.Seed). Same trace + same seed means a bit-identical
// simulation. Default 1.
func WithSeed(seed int64) Option {
	return func(b *builder) {
		b.seed = seed
		b.mods = append(b.mods, func(cfg *ClusterConfig) {
			cfg.Seed = seed
			cfg.Workload.Seed = seed
			cfg.Net.Seed = seed
			cfg.Pastry.Seed = seed
			cfg.Node.Seed = seed
		})
	}
}

// WithLoss sets the independent per-message drop probability of the
// simulated network (ClusterConfig.Net.LossRate). Default 0.
func WithLoss(rate float64) Option {
	return func(b *builder) {
		b.mods = append(b.mods, func(cfg *ClusterConfig) { cfg.Net.LossRate = rate })
	}
}

// WithScale truncates the deployment to the first n endsystems of the
// trace (all of it when n exceeds the trace). It replaces
// ClusterConfig.Trace with the truncated trace; use it to dial a large
// generated trace down to an affordable simulation.
func WithScale(n int) Option {
	return func(b *builder) {
		b.mods = append(b.mods, func(cfg *ClusterConfig) {
			if n < len(cfg.Trace.Profiles) {
				cfg.Trace = &avail.Trace{Horizon: cfg.Trace.Horizon, Profiles: cfg.Trace.Profiles[:n]}
			}
		})
	}
}

// WithFlowsPerDay sets the mean per-endsystem workload intensity
// (ClusterConfig.Workload.MeanFlowsPerDay). Default 200.
func WithFlowsPerDay(n int) Option {
	return func(b *builder) {
		b.mods = append(b.mods, func(cfg *ClusterConfig) { cfg.Workload.MeanFlowsPerDay = n })
	}
}

// WithFeed enables live data updates (ClusterConfig.Feed): endsystems
// start empty and accrue rows while up, refreshing metadata every period.
func WithFeed(period time.Duration) Option {
	return func(b *builder) {
		b.mods = append(b.mods, func(cfg *ClusterConfig) {
			cfg.Feed = FeedConfig{Enabled: true, Period: period}
		})
	}
}

// WithConfig applies fn to the full ClusterConfig — the escape hatch to
// any field without leaving the options style.
func WithConfig(fn func(*ClusterConfig)) Option {
	return func(b *builder) { b.mods = append(b.mods, fn) }
}

// New builds and wires a deployment described entirely by options:
//
//	c := seaweed.New(
//		seaweed.WithTrace(trace),
//		seaweed.WithSeed(7),
//		seaweed.WithScale(1000))
//
// WithTrace is required; every other knob defaults to the paper's
// configuration (MSPastry b=4, l=8, 30 s heartbeats; k=8 metadata
// replicas; m=3 vertex backups; CorpNet-like topology).
// Options apply in order over that default, so later options win.
func New(opts ...Option) *Cluster {
	b := builder{seed: 1}
	for _, opt := range opts {
		opt(&b)
	}
	if b.trace == nil {
		panic("seaweed.New: WithTrace is required")
	}
	cfg := core.DefaultClusterConfig(b.trace, b.seed)
	for _, mod := range b.mods {
		mod(&cfg)
	}
	return core.NewCluster(cfg)
}

// Completeness experiments: availability-level simulation of predicted vs
// actual completeness.
type (
	CompletenessResult      = core.CompletenessResult
	CompletenessStudyConfig = core.CompletenessStudyConfig
)

// RunCompletenessStudy evaluates every (query, injection) pair of a study
// in one pass: datasets are generated once and shared, and the cells
// execute through the deterministic parallel engine (cfg.Parallelism
// workers; results identical at any worker count). Results are indexed
// [query][injection].
func RunCompletenessStudy(cfg CompletenessStudyConfig) [][]*CompletenessResult {
	return core.RunCompletenessStudy(cfg)
}

// Analytical models (Section 4.2 of the paper).
type (
	ModelParams = model.Params
	Design      = model.Design
)

// The modeled architectures.
const (
	DesignCentralized   = model.Centralized
	DesignSeaweed       = model.Seaweed
	DesignDHTReplicated = model.DHTReplicated
	DesignPIER          = model.PIER
	DesignPIERSlow      = model.PIERSlow
)

// PaperModelParams returns the Table 1 parameter defaults.
func PaperModelParams() ModelParams { return model.PaperDefaults() }

// MaintenanceOverhead evaluates a design's systemwide background
// maintenance bandwidth in bytes per second.
func MaintenanceOverhead(d Design, p ModelParams) float64 {
	return model.MaintenanceOverhead(d, p)
}

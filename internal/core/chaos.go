package core

import (
	"fmt"
	"time"

	"repro/internal/avail"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// ChaosConfig parameterizes a chaos run: a fault scenario executed
// against an otherwise always-available cluster (the injected faults are
// the only adversary, so every violation is attributable to them).
type ChaosConfig struct {
	Scenario fault.Scenario
	// N is the number of endsystems (default 120).
	N int
	// Seed drives everything: topology, IDs, workload, protocol RNGs and
	// the per-fault-type injection streams.
	Seed int64
	// Settle is the recovery window after the final heal before
	// completeness is judged (default 8 min: enough for failure
	// detection, leafset reconciliation, the query-list handoff, and a
	// couple of aggregation-tree refresh rounds).
	Settle time.Duration

	// Ablations: each one removes a hardening mechanism the invariant
	// checker is expected to catch the absence of.
	DisableDissemBackoff bool
	DisableAggRepair     bool
	// DisableReassert turns off the upward re-assertion ladder at interior
	// aggregation vertices (the straggler scenario's ablation tooth).
	DisableReassert bool

	// TraceSink, when set, additionally receives every trace event (the
	// invariant checker always sees them).
	TraceSink obs.Sink
}

// alwaysUpTrace returns a trace where every endsystem is available for
// the whole horizon: chaos runs layer faults over a quiet baseline.
func alwaysUpTrace(n int, horizon time.Duration) *avail.Trace {
	tr := &avail.Trace{Horizon: horizon, Profiles: make([]*avail.Profile, n)}
	for i := range tr.Profiles {
		tr.Profiles[i] = &avail.Profile{Up: []avail.Interval{{Start: 0, End: horizon}}}
	}
	return tr
}

// chaosInjectorEndpoint picks the endsystem the query is injected at: the
// first live endsystem in a region the scenario never partitions or
// crashes, so the querying user survives the whole run.
func chaosInjectorEndpoint(c *Cluster, s fault.Scenario) simnet.Endpoint {
	targeted := make(map[int]bool)
	for _, in := range s.Injections {
		if in.Type == fault.Partition || in.Type == fault.Crash || in.Type == fault.Straggler {
			targeted[in.Region] = true
		}
	}
	topo := c.Net.Topology()
	safe := 0
	for r := 0; r < topo.NumRegions(); r++ {
		if !targeted[r] {
			safe = r
			break
		}
	}
	for ep := 0; ep < c.Net.NumEndpoints(); ep++ {
		e := simnet.Endpoint(ep)
		if topo.Region(c.Net.RouterOf(e)) == safe && c.Nodes[e].Alive() {
			return e
		}
	}
	for ep := 0; ep < c.Net.NumEndpoints(); ep++ {
		if c.Nodes[ep].Alive() {
			return simnet.Endpoint(ep)
		}
	}
	return 0
}

// RunChaos executes one chaos run: build the cluster, install the fault
// injector and the always-on invariant checker, inject one COUNT(*) query
// while the scenario's faults are active, and judge the run against the
// fault invariants after everything heals. The returned report is
// byte-deterministic for a given (scenario, seed) at any worker count.
func RunChaos(cfg ChaosConfig) *fault.Report {
	n := cfg.N
	if n <= 0 {
		n = 120
	}
	settle := cfg.Settle
	if settle <= 0 {
		settle = 8 * time.Minute
	}
	s := cfg.Scenario
	finalHeal := s.FinalHeal()
	if finalHeal < s.QueryAt {
		finalHeal = s.QueryAt
	}
	// The query must outlive measurement (judged at finalHeal+settle),
	// then expire so the no-orphans invariant can see the state drain.
	queryTTL := finalHeal - s.QueryAt + settle + 2*time.Minute
	// Latest possible learn time is around finalHeal+settle (the
	// post-heal handoff); run past every node's TTL plus refresh slack.
	endAt := finalHeal + settle + queryTTL + 4*time.Minute
	horizon := endAt + 10*time.Minute

	trace := alwaysUpTrace(n, horizon)
	ccfg := DefaultClusterConfig(trace, cfg.Seed)
	// Chaos runs compress the maintenance timescales so repair happens
	// within the settle window, and give dissemination enough retries to
	// ride out a burst with backoff.
	ccfg.Node.Meta.PushPeriod = 5 * time.Minute
	ccfg.Node.Agg.RefreshPeriod = 2 * time.Minute
	ccfg.Node.Agg.QueryTTL = queryTTL
	ccfg.Node.Agg.DisableRepair = cfg.DisableAggRepair
	// The ladder is on for every chaos scenario (not just straggler): the
	// duplication and loss windows of the other scenarios exercise the
	// exactly-once invariant under retransmitted forwards too.
	ccfg.Node.Agg.Reassert = !cfg.DisableReassert
	ccfg.Node.Dissem.MaxRetries = 6
	ccfg.Node.Dissem.DisableBackoff = cfg.DisableDissemBackoff

	// The checker rides the trace as a sink, so every fault event the
	// injector emits is observed the instant it happens. The clock is
	// bound after the cluster exists.
	var clock func() time.Duration
	checker := fault.NewChecker(func() time.Duration {
		if clock == nil {
			return 0
		}
		return clock()
	})
	o := obs.New()
	o.SetTracer(obs.NewTracer(fault.FanoutSink{Checker: checker, Next: cfg.TraceSink}))
	ccfg.Obs = o

	c := NewCluster(ccfg)
	clock = c.Sched.Now

	inj := fault.NewInjector(c.Net, s, cfg.Seed)
	c.Net.SetFaultHook(inj)
	inj.SetCrashFunc(func(ep simnet.Endpoint, down bool) {
		if down {
			c.Nodes[ep].GoDown()
		} else {
			c.Nodes[ep].GoUp()
		}
	})
	// Partitions change ground-truth reachability: the overlay's repair
	// oracles must see the cut, and failure detection must notice it on
	// the heartbeat timescale.
	c.Ring.SetReachability(inj.Reachable)
	inj.OnChange(c.Ring.ReachabilityChanged)
	inj.Start()

	report := inj.Report()

	// Inject the query at the scenario's instant — while faults are
	// active — from an endsystem outside every targeted region.
	c.RunUntil(s.QueryAt)
	from := chaosInjectorEndpoint(c, s)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	h := c.InjectQuery(from, q)
	truth := c.TrueRelevantRows(q)

	c.RunUntil(finalHeal)
	var rowsAtHeal int64
	if k := len(h.Results); k > 0 {
		rowsAtHeal = h.Results[k-1].Partial.Count
	}

	c.RunUntil(finalHeal + settle)
	var finalRows int64
	if k := len(h.Results); k > 0 {
		finalRows = h.Results[k-1].Partial.Count
	}

	// Exactly-once: no incremental result ever exceeded ground truth, and
	// contributors never exceeded the population.
	for _, upd := range h.Results {
		checker.ObserveResult(h.QueryID.Short(), float64(upd.Partial.Count), float64(truth),
			upd.Contributors, int64(n))
	}

	checker.SealInvariant(fault.InvariantExactlyOnce,
		fmt.Sprintf("%d result updates, none above ground truth %d", len(h.Results), truth))

	verdict := fault.QueryVerdict{
		Query:              h.QueryID.Short(),
		TruthRows:          float64(truth),
		RowsAtFinalHeal:    float64(rowsAtHeal),
		FinalRows:          float64(finalRows),
		RecoveredAfterHeal: rowsAtHeal < truth && finalRows == truth,
		TimeToComplete:     -1,
	}
	if truth > 0 {
		verdict.CompletenessAtHeal = float64(rowsAtHeal) / float64(truth)
		verdict.FinalCompleteness = float64(finalRows) / float64(truth)
	}
	for _, upd := range h.Results {
		if upd.Partial.Count == truth {
			verdict.TimeToComplete = upd.At - s.QueryAt
			break
		}
	}
	report.Queries = append(report.Queries, verdict)

	report.Hedges = &fault.HedgeStats{
		Enabled:   !cfg.DisableReassert,
		Reasserts: int64(o.Counter("aggtree_hedge_reasserts").Value()),
		NetSends:  int64(o.Counter("net_sends").Value()),
	}

	checker.Check(fault.InvariantCompleteness, finalRows == truth,
		fmt.Sprintf("%d/%d rows %s after final heal + %s settle",
			finalRows, truth, h.QueryID.Short(), settle))

	giveups := checker.FaultEvents(obs.KindDissemGiveup)
	checker.Check(fault.InvariantNoGiveups, giveups == 0,
		fmt.Sprintf("%d dissemination giveups (backoff must outlast every fault window)", giveups))

	// Let the query expire everywhere, then judge the state-drain and
	// convergence invariants.
	c.RunUntil(endAt)

	liveAtEnd := 0
	converged := true
	convDetail := ""
	for ep := 0; ep < n; ep++ {
		node := c.Nodes[ep]
		if !node.Alive() {
			continue
		}
		liveAtEnd++
		id := node.pn.ID()
		replicas := node.pn.ReplicaSet(metadata.K)
		if len(replicas) == 0 {
			continue
		}
		holding := 0
		for _, ref := range replicas {
			rec := c.Nodes[ref.EP].Meta().Lookup(id)
			if rec != nil && rec.Up {
				holding++
			}
		}
		if holding < len(replicas)/2+1 {
			if converged {
				convDetail = fmt.Sprintf("endsystem %d: record up at %d/%d replicas", ep, holding, len(replicas))
			}
			converged = false
		}
	}
	if converged {
		convDetail = fmt.Sprintf("%d live endsystems, records up at majority of replicas", liveAtEnd)
	}
	checker.Check(fault.InvariantMetaConvergence, converged, convDetail)

	totalVertices, orphans := 0, 0
	for _, node := range c.Nodes {
		totalVertices += node.tree.NumVertices()
		orphans += node.tree.OrphanVertices()
	}
	checker.Check(fault.InvariantNoOrphans, totalVertices == 0 && orphans == 0,
		fmt.Sprintf("%d vertices (%d orphaned) after TTL expiry", totalVertices, orphans))

	checker.VerifyTraceVisibility(report)
	checker.FillReport(report)
	return report
}

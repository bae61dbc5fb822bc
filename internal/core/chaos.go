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

// ChaosConfig is one chaos run: a fault scenario executed against the
// world Cluster describes. DefaultChaosConfig builds the always-up world
// the built-in scenarios are judged on (the injected faults are the only
// adversary, so every violation is attributable to them); any other
// world - fewer endsystems, some never up - runs and is judged the same
// way.
type ChaosConfig struct {
	Scenario fault.Scenario
	// Cluster is the world the scenario runs against. Its Seed also drives
	// the per-fault-type injection streams, and its Node.Agg.QueryTTL must
	// be the one Settle implies (RunChaos panics otherwise). RunChaos sets
	// only its Obs, which the invariant checker rides on.
	Cluster ClusterConfig
	// Settle is the recovery window after the final heal before
	// completeness is judged.
	Settle time.Duration

	// TraceSink, when set, additionally receives every trace event (the
	// invariant checker always sees them).
	TraceSink obs.Sink
}

// DefaultChaosConfig returns the world a built-in scenario runs against:
// 120 endsystems (60 at smoke scale), available for the whole run, with
// the paper's protocol defaults except for the three overrides below, each
// with its measured reason.
func DefaultChaosConfig(s fault.Scenario, seed int64, smoke bool) ChaosConfig {
	// The settle window is enough for failure detection, leafset
	// reconciliation, the query-list handoff and a couple of
	// aggregation-tree refresh rounds.
	n, settle := 120, 8*time.Minute
	if smoke {
		n, settle = 60, 5*time.Minute
	}
	// The last learn is around finalHeal+settle (the post-heal handoff);
	// the run ends past every endsystem's TTL plus refresh slack.
	finalHeal, ttl := chaosTimes(s, settle)
	horizon := finalHeal + settle + ttl + chaosDrain + 10*time.Minute
	cfg := DefaultClusterConfig(alwaysUpTrace(n, horizon), seed)
	cfg.Node.Agg.QueryTTL = ttl
	// Metadata repair must happen within the settle window. Reverted to
	// the default, the sweep's incomplete runs are the pinned ones still,
	// but straggler sends 36% fewer messages (metadata beacons), and
	// TestHedgeFullScale's extra-sends ratio, which divides by them, rises
	// past its 5% budget.
	cfg.Node.Meta.PushPeriod = 5 * time.Minute
	// So must a couple of aggregation-tree refresh rounds. Reverted to the
	// default, 13 more sweep runs end incomplete (burstloss 30; flap 13,
	// 21, 22, 23, 30, 42, 47, 48, 49, 55, 60; straggler 40), the runs that
	// end incomplete without the safety pass.
	cfg.Node.Agg.RefreshPeriod = 2 * time.Minute
	// The ladder is on for every scenario, not just straggler: the
	// duplication and loss windows of the others exercise the
	// exactly-once invariant under retransmitted forwards too. Reverted,
	// the sweep's incomplete runs are the pinned ones still: the reason is
	// coverage, not a failing seed.
	cfg.Node.Agg.Reassert = true
	return ChaosConfig{Scenario: s, Cluster: cfg, Settle: settle}
}

// chaosDrain is how long a chaos run goes on after the query's TTL ran out
// at the last endsystem to learn of it: refresh slack.
const chaosDrain = 4 * time.Minute

// chaosTimes returns when a scenario's last fault heals (never before its
// query) and the query TTL it needs: the query must outlive measurement at
// finalHeal+settle, then expire so the no-orphans invariant can see the
// state drain.
func chaosTimes(s fault.Scenario, settle time.Duration) (finalHeal, ttl time.Duration) {
	finalHeal = max(s.FinalHeal(), s.QueryAt)
	return finalHeal, finalHeal - s.QueryAt + settle + 2*time.Minute
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
	ep, _ := c.FirstLive()
	return ep
}

// RunChaos executes one chaos run: build the configured cluster, install
// the fault injector and the always-on invariant checker, inject one
// COUNT(*) query while the scenario's faults are active, and judge the run
// against the fault invariants after everything heals. Ground truth and
// the contributor bound count only the endsystems the trace brings up
// between injection and judgement. The returned report is
// byte-deterministic for a given config at any worker count.
func RunChaos(cfg ChaosConfig) *fault.Report {
	s, settle, ccfg := cfg.Scenario, cfg.Settle, cfg.Cluster
	finalHeal, ttl := chaosTimes(s, settle)
	if ccfg.Node.Agg.QueryTTL != ttl {
		panic(fmt.Sprintf("core: chaos query TTL %v does not fit scenario %s with settle %v: want %v",
			ccfg.Node.Agg.QueryTTL, s.Name, settle, ttl))
	}
	judgeAt := finalHeal + settle
	endAt := judgeAt + ttl + chaosDrain

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

	inj := fault.NewInjector(c.Net, s, ccfg.Seed)
	c.Net.SetFaultHook(inj)
	inj.SetCrashFunc(func(ep simnet.Endpoint, down bool) {
		if down {
			c.Nodes[ep].GoDown()
		} else if ccfg.Trace.Profiles[ep].AvailableAt(c.Sched.Now()) {
			// A restart returns the endsystem to what the trace has it doing.
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
	upInRun := func(i int) bool { return c.upDuring(i, s.QueryAt, judgeAt) }
	truth := c.trueRows(q, upInRun)
	var population int64
	for i := range c.Nodes {
		if upInRun(i) {
			population++
		}
	}

	lastRows := func() int64 {
		if k := len(h.Results); k > 0 {
			return h.Results[k-1].Partial.Count
		}
		return 0
	}
	c.RunUntil(finalHeal)
	rowsAtHeal := lastRows()
	c.RunUntil(judgeAt)
	finalRows := lastRows()

	// Exactly-once: no incremental result ever exceeded ground truth, and
	// contributors never exceeded the population.
	for _, upd := range h.Results {
		checker.ObserveResult(h.QueryID.Short(), float64(upd.Partial.Count), float64(truth),
			upd.Contributors, population)
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
	if at, ok := h.Reached(truth); ok {
		verdict.TimeToComplete = at - s.QueryAt
	}
	report.Queries = append(report.Queries, verdict)

	report.Hedges = &fault.HedgeStats{
		Enabled:   ccfg.Node.Agg.Reassert,
		Reasserts: int64(o.Counter("aggtree_hedge_reasserts").Value()),
		NetSends:  int64(o.Counter("net_sends").Value()),
	}

	checker.Check(fault.InvariantCompleteness, finalRows == truth,
		fmt.Sprintf("%d/%d rows %s after final heal + %s settle",
			finalRows, truth, h.QueryID.Short(), settle))

	// Let the query expire everywhere, then judge the giveup, state-drain
	// and convergence invariants: a retry ladder still climbing at the
	// settle instant can give up after it.
	c.RunUntil(endAt)

	giveups := checker.FaultEvents(obs.KindDissemGiveup)
	checker.Check(fault.InvariantNoGiveups, giveups == 0,
		fmt.Sprintf("%d dissemination giveups (backoff must outlast every fault window)", giveups))

	liveAtEnd := 0
	converged := true
	convDetail := ""
	for ep, node := range c.Nodes {
		if !node.Alive() {
			continue
		}
		liveAtEnd++
		id := node.pn.ID()
		replicas := node.pn.AppendClosest(nil, id, metadata.K, false)
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

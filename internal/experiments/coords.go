package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// coordsRunOut is the raw material one (seed, mode) run contributes to the
// coordinate-ablation study.
type coordsRunOut struct {
	// entry holds the one-way network delay from every submitting
	// endsystem to the primary of its persisted entry vertex, pooled over
	// the measured queries — the quality of the fan-in edges the
	// aggregation tree actually used.
	entry []time.Duration
	// qtimes holds each measured query's time to 99% completeness,
	// censored at the measurement window when it never got there.
	qtimes []time.Duration
	// regFanin is the registry aggtree_fanin_delay_ns p50 (includes the
	// warmup traffic that trained the coordinates; reported for context).
	regFanin time.Duration
	coordErr float64
}

// CoordsStudyResult aggregates the paired coordinate-ablation runs: the
// identical (trace, seed, workload) simulated once with the Vivaldi
// subsystem biasing delegate and entry-vertex selection and once id-only.
// The acceptance teeth: with coordinates on, the interior fan-in edge p50
// and the query p50 must strictly beat the id-only baseline on the
// clustered router topology.
type CoordsStudyResult struct {
	Smoke bool    `json:"smoke"`
	Seeds []int64 `json:"seeds"`
	// Fan-in edge delay p50 (one-way, endsystem -> entry-vertex primary),
	// pooled across seeds and measured queries.
	CoordsFaninP50 time.Duration `json:"coords_fanin_p50_ns"`
	BaseFaninP50   time.Duration `json:"baseline_fanin_p50_ns"`
	// Time-to-99%-completeness p50 across the measured queries.
	CoordsQueryP50 time.Duration `json:"coords_query_p50_ns"`
	BaseQueryP50   time.Duration `json:"baseline_query_p50_ns"`
	// Registry aggtree_fanin_delay_ns p50 (warmup included), for context.
	CoordsRegFanin time.Duration `json:"coords_registry_fanin_p50_ns"`
	BaseRegFanin   time.Duration `json:"baseline_registry_fanin_p50_ns"`
	// MeanCoordErr is the coords runs' mean Vivaldi relative prediction
	// error at the end of the run (converged spaces sit well under 1.0).
	MeanCoordErr float64 `json:"coords_mean_rel_error"`
	EntryEdges   int     `json:"entry_edges_per_mode"`
	Queries      int     `json:"queries_per_mode"`
}

// OK reports the study's acceptance teeth.
func (r *CoordsStudyResult) OK() bool {
	return r.CoordsFaninP50 < r.BaseFaninP50 && r.CoordsQueryP50 < r.BaseQueryP50
}

// CoordsStudy runs the paired coordinate ablation: per seed, one cluster
// with the Vivaldi subsystem enabled and one id-only, same trace and
// workload. Each run warms the overlay (and, in the coords run, the
// coordinate space — samples ride the ambient maintenance and query
// traffic), then injects a series of measured queries and scores the
// fan-in edges and completion times. Pairs fan out across workers through
// the deterministic engine.
func CoordsStudy(seeds []int64, smoke bool, workers int) *CoordsStudyResult {
	// Run 2i is seed i with coordinates on, run 2i+1 the same seed id-only.
	runs := runSeries(Scale{Workers: workers}, 2*len(seeds), func(i int, _ Scale) *coordsRunOut {
		return coordsOneRun(seeds[i/2], i%2 == 0, smoke)
	})

	out := &CoordsStudyResult{Smoke: smoke, Seeds: seeds}
	var cEntry, bEntry, cTimes, bTimes []time.Duration
	var cReg, bReg []time.Duration
	var errSum float64
	for i := range seeds {
		c, b := runs[2*i], runs[2*i+1]
		cEntry = append(cEntry, c.entry...)
		bEntry = append(bEntry, b.entry...)
		cTimes = append(cTimes, c.qtimes...)
		bTimes = append(bTimes, b.qtimes...)
		cReg = append(cReg, c.regFanin)
		bReg = append(bReg, b.regFanin)
		errSum += c.coordErr
	}
	out.CoordsFaninP50 = durMedian(cEntry)
	out.BaseFaninP50 = durMedian(bEntry)
	out.CoordsQueryP50 = durMedian(cTimes)
	out.BaseQueryP50 = durMedian(bTimes)
	out.CoordsRegFanin = durMedian(cReg)
	out.BaseRegFanin = durMedian(bReg)
	if len(seeds) > 0 {
		out.MeanCoordErr = errSum / float64(len(seeds))
	}
	out.EntryEdges = len(cEntry)
	out.Queries = len(cTimes)
	return out
}

// coordsOneRun simulates one cluster on the clustered router topology and
// scores the measured queries. The scale is fixed per mode (smoke/full) so
// the ablation pairs are comparable across machines.
func coordsOneRun(seed int64, enable, smoke bool) *coordsRunOut {
	n, horizon := 300, 30*time.Hour
	warmups, measured := 5, 5
	window := 2 * time.Hour
	if smoke {
		n, horizon = 120, 20*time.Hour
		warmups, measured = 3, 3
	}
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, seed))
	cfg := core.DefaultClusterConfig(trace, seed)
	cfg.Workload.MeanFlowsPerDay = 60
	if enable {
		cfg.Coords = coords.Enabled()
	}
	o := obs.New()
	cfg.Obs = o
	c := core.NewCluster(cfg)

	// Warmup: run the overlay in, then a few throwaway queries whose
	// traffic (dissemination, submissions, result streams) feeds the
	// Vivaldi sampler. Both modes run them so the load is identical.
	t := 4 * time.Hour
	c.RunUntil(t)
	for i := 0; i < warmups; i++ {
		c.InjectQuery(firstLive(c), relq.MustParse(Fig9Query))
		t += 40 * time.Minute
		c.RunUntil(t)
	}

	out := &coordsRunOut{}
	for i := 0; i < measured; i++ {
		inj := firstLive(c)
		injAt := c.Sched.Now()
		h := c.InjectQuery(inj, relq.MustParse(Fig9Query))
		t += window
		c.RunUntil(t)
		out.qtimes = append(out.qtimes, timeTo99(h, injAt, window))
		for ep := range c.Nodes {
			v, ok := c.Nodes[ep].TreeEntryVertex(h.QueryID)
			if !ok {
				continue
			}
			root, live := c.Ring.Root(v)
			if !live || root.EP == simnet.Endpoint(ep) {
				continue
			}
			out.entry = append(out.entry, c.Net.Delay(simnet.Endpoint(ep), root.EP))
		}
		c.CancelQuery(h, inj)
	}
	out.regFanin = time.Duration(o.DurationHistogram("aggtree_fanin_delay_ns").Quantile(0.5))
	if sp := c.Coords(); sp != nil {
		out.coordErr = sp.MeanError()
	}
	return out
}

// timeTo99 returns the delay from injection to the first result update
// reaching 99% of the predictor's expected total, or the censoring window
// when the query never got there (ranking it behind every completed run).
func timeTo99(h *core.QueryHandle, injAt, window time.Duration) time.Duration {
	if h.Predictor != nil {
		if total := h.Predictor.ExpectedTotal(); total > 0 {
			for _, u := range h.Results {
				if float64(u.Partial.Count) >= 0.99*total {
					return u.At - injAt
				}
			}
		}
	}
	return window
}

// durMedian returns the median (lower of the middle pair) of ds.
func durMedian(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Render writes the ablation table and the verdict line.
func (r *CoordsStudyResult) Render(w io.Writer) {
	header(w, "Network coordinates: fan-in edge and query p50, coords vs id-only baseline",
		"metric", "coords", "id_only")
	row(w, "fanin_edge_p50", r.CoordsFaninP50, r.BaseFaninP50)
	row(w, "query_p50", r.CoordsQueryP50, r.BaseQueryP50)
	row(w, "registry_fanin_p50", r.CoordsRegFanin, r.BaseRegFanin)
	fmt.Fprintf(w, "# %d seeds, %d queries, %d fan-in edges per mode; mean Vivaldi rel. error %.3f; teeth pass=%v\n",
		len(r.Seeds), r.Queries, r.EntryEdges, r.MeanCoordErr, r.OK())
}

// RTTScopeResult is the outcome of the RTT-scoped query demo: the
// protocol's converged row count against the brute-force oracle over the
// scope's frozen coordinate snapshot.
type RTTScopeResult struct {
	Radius  time.Duration `json:"radius_ns"`
	N       int           `json:"endsystems"`
	Members int           `json:"scope_members"`
	// FinalRows is the row count of the last result update the injector
	// saw; OracleRows the exact matching-row count over the in-scope
	// endsystems' data (available or not).
	FinalRows  int64 `json:"final_rows"`
	OracleRows int64 `json:"oracle_rows"`
	// OutOfScopeSubmits counts endsystems that entered the aggregation
	// tree despite being outside the scope — must be zero.
	OutOfScopeSubmits int `json:"out_of_scope_submits"`
	// Pruned is the rttscope_pruned counter: dissemination subranges
	// skipped whole because their coordinate ball cleared the radius.
	Pruned       int64   `json:"subranges_pruned"`
	MeanCoordErr float64 `json:"coords_mean_rel_error"`
}

// OK reports whether the scoped query returned exactly the in-scope rows
// and nothing leaked in from outside the radius.
func (r *RTTScopeResult) OK() bool {
	return r.FinalRows == r.OracleRows && r.OutOfScopeSubmits == 0
}

// RTTScopeDemo trains a coordinate space on ambient traffic for half the
// packet horizon, injects the Figure 9 query scoped to the endsystems
// within radius of the injector, runs to the horizon and audits the
// result against the brute-force oracle over the frozen snapshot.
func RTTScopeDemo(s Scale, radius time.Duration) *RTTScopeResult {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.PacketN, s.PacketHorizon, s.Seed))
	cfg := s.clusterConfig(trace, s.Seed)
	cfg.Coords = coords.Enabled()
	cfg.Node.Agg.QueryTTL = 0
	c := core.NewCluster(cfg)

	c.RunUntil(trace.Horizon / 2)
	q := relq.MustParse(Fig9Query)
	q.RTTScope = radius
	inj := firstLive(c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(trace.Horizon)

	r := &RTTScopeResult{Radius: radius, N: trace.NumEndsystems()}
	sp := c.Coords()
	if members, ok := sp.ScopeMembers(h.QueryID); ok {
		r.Members = len(members)
	}
	if k := len(h.Results); k > 0 {
		r.FinalRows = h.Results[k-1].Partial.Count
	}
	r.OracleRows = c.TrueRowsInScope(h.QueryID, q)
	for ep := range c.Nodes {
		if _, ok := c.Nodes[ep].TreeEntryVertex(h.QueryID); !ok {
			continue
		}
		if !sp.InScope(h.QueryID, simnet.Endpoint(ep)) {
			r.OutOfScopeSubmits++
		}
	}
	r.Pruned = int64(c.Obs().Counter("rttscope_pruned").Value())
	r.MeanCoordErr = sp.MeanError()
	return r
}

// Render writes the scoped-query audit.
func (r *RTTScopeResult) Render(w io.Writer) {
	header(w, fmt.Sprintf("RTT-scoped query: endsystems within %v of the injector", r.Radius),
		"metric", "value")
	row(w, "endsystems", r.N)
	row(w, "scope_members", r.Members)
	row(w, "final_rows", r.FinalRows)
	row(w, "oracle_rows", r.OracleRows)
	row(w, "out_of_scope_submits", r.OutOfScopeSubmits)
	row(w, "subranges_pruned", r.Pruned)
	row(w, "mean_coord_rel_error", fmt.Sprintf("%.3f", r.MeanCoordErr))
	fmt.Fprintf(w, "# exact against oracle=%v\n", r.OK())
}

package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// CoordsStudy pairs clusters on the clustered router topology with Vivaldi
// coordinates biasing delegate and entry-vertex selection and id-only.
// Each run warms the overlay and the space, then scores measured queries:
// "fanin_edge" is the one-way delay from each submitting endsystem to its
// entry vertex's primary, "query" each query's time to 99% completeness
// (censored at the window), "registry_fanin" the registry's
// aggtree_fanin_delay_ns p50 with warmup, and "coord_error" the space's
// mean relative error.
func CoordsStudy(seeds []int64, smoke bool, workers int) *PairedResult {
	n, horizon := 300, 30*time.Hour
	warmups, measured := 5, 5
	window := 2 * time.Hour
	if smoke {
		n, horizon = 120, 20*time.Hour
		warmups, measured = 3, 3
	}
	return PairedStudy("Network coordinates: fan-in edge and query delay", []string{"coords", "id_only"}, seeds, workers,
		func(seed int64, arm int) PairedRun {
			trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, seed))
			cfg := core.DefaultClusterConfig(trace, seed)
			cfg.Workload.MeanFlowsPerDay = 60
			if arm == 0 {
				cfg.Coords = coords.Enabled()
			}
			o := obs.New()
			cfg.Obs = o
			c := core.NewCluster(cfg)

			// Warmup: run the overlay in, then a few throwaway queries whose
			// traffic (dissemination, submissions, result streams) feeds the
			// Vivaldi sampler. Both arms run them so the load is identical.
			t := 4 * time.Hour
			c.RunUntil(t)
			for i := 0; i < warmups; i++ {
				inj, _ := c.FirstLive()
				c.InjectQuery(inj, relq.MustParse(Fig9Query))
				t += 40 * time.Minute
				c.RunUntil(t)
			}

			var entry, qtimes []time.Duration
			for i := 0; i < measured; i++ {
				inj, _ := c.FirstLive()
				injAt := c.Sched.Now()
				h := c.InjectQuery(inj, relq.MustParse(Fig9Query))
				t += window
				c.RunUntil(t)
				qtimes = append(qtimes, timeTo99(h, injAt, window))
				for ep := range c.Nodes {
					v, ok := c.Nodes[ep].TreeEntryVertex(h.QueryID)
					if !ok {
						continue
					}
					root, live := c.Ring.Root(v)
					if !live || root.EP == simnet.Endpoint(ep) {
						continue
					}
					entry = append(entry, c.Net.Delay(simnet.Endpoint(ep), root.EP))
				}
				c.CancelQuery(h, inj)
			}
			regFanin := time.Duration(o.DurationHistogram("aggtree_fanin_delay_ns").Quantile(0.5))
			run := PairedRun{
				Samples: map[string][]time.Duration{"fanin_edge": entry, "query": qtimes, "registry_fanin": {regFanin}},
				OK:      true,
			}
			if sp := c.Coords(); sp != nil {
				run.Values = map[string]float64{"coord_error": sp.MeanError()}
			}
			return run
		})
}

// timeTo99 returns the delay from injection to the first result update
// reaching 99% of the predictor's expected total, or the censoring window
// when the query never got there (ranking it behind every completed run).
func timeTo99(h *core.QueryHandle, injAt, window time.Duration) time.Duration {
	if h.Predictor != nil {
		if total := h.Predictor.ExpectedTotal(); total > 0 {
			if at, ok := h.Reached(int64(math.Ceil(0.99 * total))); ok {
				return at - injAt
			}
		}
	}
	return window
}

// RTTScopeResult is the outcome of the RTT-scoped query demo: the
// protocol's converged row count against the brute-force oracle over the
// scope's frozen coordinate snapshot.
type RTTScopeResult struct {
	Radius  time.Duration `json:"radius_ns"`
	N       int           `json:"endsystems"`
	Members int           `json:"scope_members"`
	// FinalRows is the row count of the last result update the injector
	// saw; OracleRows the exact matching-row count over the data of the
	// in-scope endsystems up at some instant since injection.
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
	inj, _ := c.FirstLive()
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
	r.OracleRows = c.TrueRowsInScope(h, q)
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

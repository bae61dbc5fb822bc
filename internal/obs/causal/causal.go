// Package causal reconstructs per-query causal span trees from trace
// events and decomposes each query's end-to-end delay into phases.
//
// Span-linked events (obs.Event.Span/Parent) form a tree per query:
// admission → queue → inject → dissemination fan-out → execution →
// aggregation fan-in → complete. The critical path is the chain of
// Parent links walked back from the query's terminal event (complete,
// else cancel, else the last partial) to its root (the queued event
// when the query went through the service, else the inject). Because
// consecutive path edges telescope, attributing each edge's duration
// (child.T − parent.T) to a phase decomposes the query's end-to-end
// latency *exactly* — every virtual nanosecond lands in precisely one
// phase, and the phase sums equal the total by construction.
package causal

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Phase labels one component of a query's end-to-end delay.
type Phase string

const (
	// PhaseQueueWait is time spent in the query service before injection:
	// admission processing plus scheduling-queue wait.
	PhaseQueueWait Phase = "queue_wait"
	// PhaseRouting is overlay and dissemination propagation time: the
	// divide-and-conquer broadcast and per-hop routing.
	PhaseRouting Phase = "routing"
	// PhaseRetryBackoff is time spent waiting out retransmission
	// timeouts: dissemination subrange reissues, stale-route retries and
	// aggregation resubmissions.
	PhaseRetryBackoff Phase = "retry_backoff"
	// PhaseAvailabilityWait is time a query spent waiting for an offline
	// endsystem to come back and execute it (the query-list handoff
	// path).
	PhaseAvailabilityWait Phase = "availability_wait"
	// PhaseExecution is local query execution and result submission at
	// endsystems.
	PhaseExecution Phase = "execution"
	// PhaseAggregation is aggregation-tree fan-in: partial results
	// climbing the tree and result updates reaching the injector.
	PhaseAggregation Phase = "aggregation"
	// PhaseOther is any edge whose head kind has no phase mapping.
	PhaseOther Phase = "other"
)

// Phases lists every phase in report order.
var Phases = []Phase{
	PhaseQueueWait, PhaseRouting, PhaseRetryBackoff,
	PhaseAvailabilityWait, PhaseExecution, PhaseAggregation, PhaseOther,
}

// PhaseOf maps a critical-path edge to a phase by the kind of the event
// at the edge's head: the edge's duration is the time it took to *reach*
// that event from its causal parent.
func PhaseOf(k obs.Kind) Phase {
	switch k {
	case obs.KindQueued, obs.KindStarted, obs.KindInject, obs.KindShed:
		return PhaseQueueWait
	case obs.KindDisseminate, obs.KindOnBehalf, obs.KindPredict, obs.KindRouteDeliver:
		return PhaseRouting
	case obs.KindDissemRetry, obs.KindDissemAbandon, obs.KindDissemGiveup,
		obs.KindRouteRetry, obs.KindRouteDrop, obs.KindAggResubmit:
		return PhaseRetryBackoff
	case obs.KindExec, obs.KindSubmit:
		return PhaseExecution
	case obs.KindAvailExec:
		return PhaseAvailabilityWait
	case obs.KindPartial, obs.KindComplete, obs.KindCancel, obs.KindTakeover:
		return PhaseAggregation
	}
	return PhaseOther
}

// Step is one event on a query's critical path. Dur is the time from
// the previous path event to this one, attributed to Phase; the path
// root has Dur 0.
type Step struct {
	Kind  obs.Kind      `json:"kind"`
	EP    int           `json:"ep"`
	At    time.Duration `json:"at"`
	Dur   time.Duration `json:"dur"`
	Phase Phase         `json:"phase,omitempty"`
}

// Breakdown is one query's critical-path delay decomposition.
type Breakdown struct {
	Query string `json:"query"`
	// Start and End are the virtual instants of the path's root and
	// terminal events; Total = End − Start is the decomposed latency.
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	Total    time.Duration `json:"total"`
	Terminal obs.Kind      `json:"terminal"`
	// Phases is the per-phase attribution; values sum to Total exactly.
	Phases map[Phase]time.Duration `json:"phases"`
	// Path is the critical path, root first.
	Path []Step `json:"path"`
}

// Check verifies the decomposition invariant: the phase durations sum
// to Total exactly.
func (b *Breakdown) Check() error {
	var sum time.Duration
	for _, d := range b.Phases {
		sum += d
	}
	if sum != b.Total {
		return fmt.Errorf("causal: query %s phases sum to %v, total is %v", b.Query, sum, b.Total)
	}
	return nil
}

// Analyze reconstructs every query's causal tree from a trace and
// returns per-query breakdowns ordered by injection time. Queries are
// enumerated from inject events; a query's terminal event is its
// complete, else its cancel, else its last partial, else the inject
// itself. Traces recorded without span links (older traces, the
// availability-level simulator) yield breakdowns with a single-event
// path and an empty decomposition.
func Analyze(events []obs.Event) []*Breakdown {
	bySpan := make(map[uint64]obs.Event)
	for _, ev := range events {
		if ev.Span != 0 {
			bySpan[ev.Span] = ev
		}
	}
	type qstate struct {
		inject   obs.Event
		terminal obs.Event
		rank     int // 0 none, 1 partial, 2 cancel, 3 complete
	}
	var order []string
	states := make(map[string]*qstate)
	for _, ev := range events {
		if ev.Query == "" {
			continue
		}
		st, ok := states[ev.Query]
		if !ok {
			if ev.Kind != obs.KindInject {
				continue
			}
			st = &qstate{inject: ev, terminal: ev}
			states[ev.Query] = st
			order = append(order, ev.Query)
			continue
		}
		var rank int
		switch ev.Kind {
		case obs.KindPartial:
			rank = 1
		case obs.KindCancel:
			rank = 2
		case obs.KindComplete:
			rank = 3
		default:
			continue
		}
		// Later events of equal rank win, so rank 1 tracks the *last*
		// partial.
		if rank >= st.rank {
			st.rank, st.terminal = rank, ev
		}
	}
	out := make([]*Breakdown, 0, len(order))
	for _, q := range order {
		out = append(out, breakdown(q, states[q].terminal, bySpan))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// breakdown walks the Parent chain back from terminal and attributes
// each edge.
func breakdown(query string, terminal obs.Event, bySpan map[uint64]obs.Event) *Breakdown {
	chain := []obs.Event{terminal}
	seen := map[uint64]bool{terminal.Span: true}
	cur := terminal
	for cur.Parent != 0 && !seen[cur.Parent] {
		p, ok := bySpan[cur.Parent]
		if !ok {
			break
		}
		seen[p.Span] = true
		chain = append(chain, p)
		cur = p
	}
	// chain is terminal-first; reverse to root-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	b := &Breakdown{
		Query:    query,
		Start:    chain[0].T,
		End:      terminal.T,
		Total:    terminal.T - chain[0].T,
		Terminal: terminal.Kind,
		Phases:   make(map[Phase]time.Duration),
	}
	for i, ev := range chain {
		step := Step{Kind: ev.Kind, EP: ev.EP, At: ev.T}
		if i > 0 {
			step.Dur = ev.T - chain[i-1].T
			step.Phase = PhaseOf(ev.Kind)
			b.Phases[step.Phase] += step.Dur
		}
		b.Path = append(b.Path, step)
	}
	return b
}

// PhaseStats is one phase's distribution across a set of queries.
type PhaseStats struct {
	Phase Phase         `json:"phase"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
	// Share is the phase's fraction of the summed totals.
	Share float64 `json:"share"`
}

// Aggregate is the workload-level decomposition: per-phase quantiles
// over every analyzed query.
type Aggregate struct {
	Queries  int           `json:"queries"`
	TotalP50 time.Duration `json:"total_p50"`
	TotalP99 time.Duration `json:"total_p99"`
	Phases   []PhaseStats  `json:"phases"`
}

// Summarize computes the aggregate decomposition over breakdowns.
func Summarize(bds []*Breakdown) *Aggregate {
	agg := &Aggregate{Queries: len(bds)}
	if len(bds) == 0 {
		return agg
	}
	totals := make([]time.Duration, 0, len(bds))
	var grand time.Duration
	perPhase := make(map[Phase][]time.Duration)
	sums := make(map[Phase]time.Duration)
	for _, b := range bds {
		totals = append(totals, b.Total)
		grand += b.Total
		for _, p := range Phases {
			d := b.Phases[p] // zero when the phase is absent
			perPhase[p] = append(perPhase[p], d)
			sums[p] += d
		}
	}
	agg.TotalP50 = quantile(totals, 0.50)
	agg.TotalP99 = quantile(totals, 0.99)
	for _, p := range Phases {
		ds := perPhase[p]
		ps := PhaseStats{
			Phase: p,
			Mean:  mean(ds),
			P50:   quantile(ds, 0.50),
			P99:   quantile(ds, 0.99),
		}
		if grand > 0 {
			ps.Share = float64(sums[p]) / float64(grand)
		}
		agg.Phases = append(agg.Phases, ps)
	}
	return agg
}

// quantile is the nearest-rank quantile of unsorted durations, rounding
// the rank up so high quantiles of small samples report the tail rather
// than the middle.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q * float64(len(s)-1)))
	return s[idx]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// WriteBreakdown renders one query's decomposition.
func WriteBreakdown(w io.Writer, b *Breakdown) {
	fmt.Fprintf(w, "query %s: %v end-to-end (%s at %v)\n", b.Query, b.Total, b.Terminal, b.End)
	for _, p := range Phases {
		d, ok := b.Phases[p]
		if !ok {
			continue
		}
		share := 0.0
		if b.Total > 0 {
			share = 100 * float64(d) / float64(b.Total)
		}
		fmt.Fprintf(w, "  %-18s %12v  %5.1f%%\n", p, d, share)
	}
}

// WritePath renders one query's critical path, root first.
func WritePath(w io.Writer, b *Breakdown) {
	fmt.Fprintf(w, "query %s critical path (%d steps, %v total):\n", b.Query, len(b.Path), b.Total)
	for _, s := range b.Path {
		if s.Phase == "" {
			fmt.Fprintf(w, "  t=%-14v %-14s ep=%d\n", s.At, s.Kind, s.EP)
			continue
		}
		fmt.Fprintf(w, "  t=%-14v %-14s ep=%-5d +%v (%s)\n", s.At, s.Kind, s.EP, s.Dur, s.Phase)
	}
}

// WriteAggregate renders the workload-level decomposition.
func WriteAggregate(w io.Writer, a *Aggregate) {
	fmt.Fprintf(w, "# delay decomposition over %d queries (total p50=%v p99=%v)\n",
		a.Queries, a.TotalP50, a.TotalP99)
	fmt.Fprintf(w, "  %-18s %14s %14s %14s %7s\n", "phase", "mean", "p50", "p99", "share")
	for _, ps := range a.Phases {
		if ps.Mean == 0 && ps.P99 == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-18s %14v %14v %14v %6.1f%%\n",
			ps.Phase, ps.Mean, ps.P50, ps.P99, 100*ps.Share)
	}
}

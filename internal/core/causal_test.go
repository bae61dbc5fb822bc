package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/causal"
	"repro/internal/relq"
)

// captureSink accumulates every trace event in record order.
type captureSink struct{ events []obs.Event }

func (s *captureSink) Record(ev obs.Event) { s.events = append(s.events, ev) }

// The acceptance invariant of the causal tracing layer: for every query
// that completes in a deterministic run, the critical-path phase
// decomposition sums — exactly, in virtual time — to the query's
// end-to-end latency from service arrival to completion. The test plays
// the query service's part (internal/qserve): a queued span at arrival,
// a started span at dispatch, and the injection chained to it.
func TestCausalBreakdownSumsToLatency(t *testing.T) {
	trace := alwaysUpTrace(50, 24*time.Hour)
	cfg := DefaultClusterConfig(trace, 7)
	cfg.Workload.MeanFlowsPerDay = 40
	o := obs.New()
	sink := &captureSink{}
	o.SetTracer(obs.NewTracer(sink))
	cfg.Obs = o
	c := NewCluster(cfg)
	c.RunUntil(2 * time.Hour)

	// Queue several queries at one instant and start them staggered, so
	// the decompositions include genuine queue wait alongside routing,
	// execution and aggregation.
	type served struct {
		h                          *QueryHandle
		arrived, started, finished time.Duration
	}
	inj := findLiveInjector(t, c)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE SrcPort=80")
	var sqs []*served
	for i := 0; i < 4; i++ {
		sq := &served{arrived: c.Sched.Now()}
		sqs = append(sqs, sq)
		span := o.EmitSpan(0, obs.Event{Kind: obs.KindQueued, EP: int(inj), N: int64(i)})
		wait := time.Duration(i) * 37 * time.Second
		c.Sched.After(wait, func() {
			sq.started = c.Sched.Now()
			span := o.EmitSpan(span, obs.Event{Kind: obs.KindStarted, EP: int(inj), N: int64(i)})
			sq.h = c.InjectQueryCause(inj, q, span)
			sq.h.WhenDone(func() { sq.finished = c.Sched.Now() })
		})
	}
	c.RunUntil(c.Sched.Now() + 4*time.Hour)

	byQ := make(map[string]*causal.Breakdown)
	for _, b := range causal.Analyze(sink.events) {
		byQ[b.Query] = b
	}
	completed := 0
	for i, sq := range sqs {
		if !sq.h.Completed {
			continue
		}
		completed++
		b := byQ[sq.h.QueryID.Short()]
		if b == nil {
			t.Fatalf("query %d (%s) has no causal breakdown", i, sq.h.QueryID.Short())
		}
		if err := b.Check(); err != nil {
			t.Errorf("query %d: %v", i, err)
		}
		if b.Terminal != obs.KindComplete {
			t.Errorf("query %d terminal = %s, want complete", i, b.Terminal)
		}
		// The path's root is the queued event at arrival and its terminal
		// the complete event, so the decomposed Total must equal the
		// independently tracked latency exactly.
		if b.Start != sq.arrived || b.End != sq.finished {
			t.Errorf("query %d path spans [%v,%v], service saw [%v,%v]",
				i, b.Start, b.End, sq.arrived, sq.finished)
		}
		if want := sq.finished - sq.arrived; b.Total != want {
			t.Errorf("query %d decomposed %v, end-to-end latency %v", i, b.Total, want)
		}
		// The staggered start must be attributed to queue wait.
		if wait := sq.started - sq.arrived; b.Phases[causal.PhaseQueueWait] < wait {
			t.Errorf("query %d queue_wait %v < actual queue dwell %v",
				i, b.Phases[causal.PhaseQueueWait], wait)
		}
	}
	if completed < 2 {
		t.Fatalf("only %d/4 queries completed; horizon too short for the invariant to bite", completed)
	}
}

// The query service (internal/qserve) sheds on arrival and queues the
// rest. The test plays both: a shed span is a lone root that no cluster
// event chains to, while a queued query chains queued → started → inject,
// so its cancelled path runs back to its arrival and the queue dwell is
// all queue wait.
func TestCausalShedQueryChain(t *testing.T) {
	trace := alwaysUpTrace(30, 8*time.Hour)
	cfg := DefaultClusterConfig(trace, 11)
	cfg.Workload.MeanFlowsPerDay = 20
	o := obs.New()
	sink := &captureSink{}
	o.SetTracer(obs.NewTracer(sink))
	cfg.Obs = o
	c := NewCluster(cfg)
	c.RunUntil(time.Hour)

	inj := findLiveInjector(t, c)
	arrived := c.Sched.Now()
	shedSpan := o.EmitSpan(0, obs.Event{Kind: obs.KindShed, EP: int(inj), N: 0})
	queuedSpan := o.EmitSpan(0, obs.Event{Kind: obs.KindQueued, EP: int(inj), N: 1})
	c.RunUntil(c.Sched.Now() + time.Minute)
	startedSpan := o.EmitSpan(queuedSpan, obs.Event{Kind: obs.KindStarted, EP: int(inj), N: 1})
	h := c.InjectQueryCause(inj, relq.MustParse("SELECT COUNT(*) FROM Flow"), startedSpan)
	c.RunUntil(c.Sched.Now() + 10*time.Minute)
	c.CancelQuery(h, inj)
	cancelled := c.Sched.Now()

	var shed, inject *obs.Event
	for i := range sink.events {
		ev := &sink.events[i]
		switch {
		case ev.Span == shedSpan:
			shed = ev
		case ev.Kind == obs.KindInject:
			inject = ev
		}
		if ev.Parent == shedSpan {
			t.Fatalf("%s event chains to the shed span", ev.Kind)
		}
	}
	if shed == nil || inject == nil {
		t.Fatal("missing shed/inject events in trace")
	}
	if shed.Kind != obs.KindShed || shed.Parent != 0 {
		t.Fatalf("shed event %s has parent %d, want a root", shed.Kind, shed.Parent)
	}
	if inject.Parent != startedSpan {
		t.Fatalf("inject (parent %d) not chained to started (span %d)", inject.Parent, startedSpan)
	}

	bs := causal.Analyze(sink.events)
	if len(bs) != 1 {
		t.Fatalf("%d breakdowns, want 1 (the shed query was never injected)", len(bs))
	}
	b := bs[0]
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	if b.Query != h.QueryID.Short() || b.Terminal != obs.KindCancel {
		t.Fatalf("breakdown for %s ends in %s, want %s ending in cancel", b.Query, b.Terminal, h.QueryID.Short())
	}
	if b.Start != arrived || b.End != cancelled {
		t.Fatalf("path spans [%v,%v], want arrival %v to cancel %v", b.Start, b.End, arrived, cancelled)
	}
	if len(b.Path) < 3 || b.Path[0].Kind != obs.KindQueued || b.Path[1].Kind != obs.KindStarted ||
		b.Path[2].Kind != obs.KindInject {
		t.Fatalf("path does not begin queued -> started -> inject: %+v", b.Path)
	}
	if d := b.Path[1].Dur; d != time.Minute {
		t.Fatalf("queued->started edge = %v, want 1m", d)
	}
	if b.Phases[causal.PhaseQueueWait] < time.Minute {
		t.Fatalf("queue_wait %v < the 1m queue dwell", b.Phases[causal.PhaseQueueWait])
	}
}

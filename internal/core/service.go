package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// This file is the query-service façade over InjectQuery/CancelQuery: a
// thin lifecycle layer that multi-tenant schedulers (internal/qserve)
// drive. It owns the state machine
//
//	admitted → queued → running → complete
//	        ↘ shed           ↘ cancelled
//
// and the service-level metrics (queries_active, queries_shed,
// queries_cancelled, queries_completed). It deliberately contains no
// policy: who is admitted, queued, shed or started is the caller's
// decision.

// QueryState is the lifecycle state of a serviced query.
type QueryState uint8

const (
	// QueryAdmitted: accepted by admission control, not yet scheduled.
	QueryAdmitted QueryState = iota
	// QueryQueued: waiting for scheduling budget.
	QueryQueued
	// QueryRunning: injected into the cluster, results streaming.
	QueryRunning
	// QueryShed: rejected by admission control; never injected.
	QueryShed
	// QueryCancelled: explicitly cancelled before completing.
	QueryCancelled
	// QueryComplete: incremental results reached the predicted total.
	QueryComplete
)

// String renders the state name.
func (s QueryState) String() string {
	switch s {
	case QueryAdmitted:
		return "admitted"
	case QueryQueued:
		return "queued"
	case QueryRunning:
		return "running"
	case QueryShed:
		return "shed"
	case QueryCancelled:
		return "cancelled"
	case QueryComplete:
		return "complete"
	}
	return fmt.Sprintf("QueryState(%d)", uint8(s))
}

// Terminal reports whether the state is an end state.
func (s QueryState) Terminal() bool {
	return s == QueryShed || s == QueryCancelled || s == QueryComplete
}

// ServicedQuery is one query moving through the service lifecycle.
type ServicedQuery struct {
	// Seq is the service-assigned arrival sequence number.
	Seq int
	// From is the injector endsystem the query runs at when started.
	From simnet.Endpoint
	// Query is the parsed query.
	Query *relq.Query
	// Class is the caller's traffic class label (e.g. "interactive").
	Class string
	// State is the current lifecycle state.
	State QueryState
	// ArrivedAt, StartedAt and FinishedAt are virtual instants; StartedAt
	// and FinishedAt are -1 until the query starts / reaches an end state.
	ArrivedAt  time.Duration
	StartedAt  time.Duration
	FinishedAt time.Duration
	// Handle is the cluster handle, nil until the query starts.
	Handle *QueryHandle
	// span is the query's latest lifecycle span (queued or started), so
	// the service's trace events chain admission → queue → inject.
	span uint64
}

// QueryService is the lifecycle façade over one cluster.
type QueryService struct {
	c   *Cluster
	o   *obs.Obs
	seq int

	gActive    *obs.Gauge
	cAdmitted  *obs.Counter
	cShed      *obs.Counter
	cCancelled *obs.Counter
}

// NewQueryService returns a service façade over the cluster.
func NewQueryService(c *Cluster) *QueryService {
	o := c.Obs()
	return &QueryService{
		c:          c,
		o:          o,
		gActive:    o.Gauge("queries_active"),
		cAdmitted:  o.Counter("queries_admitted"),
		cShed:      o.Counter("queries_shed"),
		cCancelled: o.Counter("queries_cancelled"),
	}
}

// Cluster returns the underlying cluster.
func (s *QueryService) Cluster() *Cluster { return s.c }

func (s *QueryService) now() time.Duration { return s.c.Sched.Now() }

// Admit registers an arriving query in state admitted.
func (s *QueryService) Admit(from simnet.Endpoint, q *relq.Query, class string) *ServicedQuery {
	sq := &ServicedQuery{
		Seq: s.seq, From: from, Query: q, Class: class,
		State: QueryAdmitted, ArrivedAt: s.now(), StartedAt: -1, FinishedAt: -1,
	}
	s.seq++
	s.cAdmitted.Inc()
	return sq
}

// Enqueue moves an admitted query to queued (no budget for it yet). The
// queued event starts the query's causal chain: its queryId does not
// exist yet (it is derived from the injection instant), so the event
// carries the arrival sequence number and an empty Query, and the later
// started/inject events link back to it by span.
func (s *QueryService) Enqueue(sq *ServicedQuery) {
	s.mustBe(sq, QueryAdmitted)
	sq.State = QueryQueued
	sq.span = s.o.EmitSpan(0, obs.Event{Kind: obs.KindQueued,
		EP: int(sq.From), N: int64(sq.Seq)})
}

// Shed rejects an admitted or queued query; it is never injected.
func (s *QueryService) Shed(sq *ServicedQuery) {
	if sq.State != QueryAdmitted && sq.State != QueryQueued {
		panic(fmt.Sprintf("core: Shed from state %v (query %d)", sq.State, sq.Seq))
	}
	sq.State = QueryShed
	sq.FinishedAt = s.now()
	s.cShed.Inc()
	s.o.EmitSpan(sq.span, obs.Event{Kind: obs.KindShed,
		EP: int(sq.From), N: int64(sq.Seq)})
}

// Start injects an admitted or queued query into the cluster and returns
// its handle. The service flips the query to its end state — complete or
// cancelled — at the virtual instant the handle's Done channel closes.
func (s *QueryService) Start(sq *ServicedQuery) *QueryHandle {
	if sq.State != QueryAdmitted && sq.State != QueryQueued {
		panic(fmt.Sprintf("core: Start from state %v (query %d)", sq.State, sq.Seq))
	}
	sq.State = QueryRunning
	sq.StartedAt = s.now()
	sq.span = s.o.EmitSpan(sq.span, obs.Event{Kind: obs.KindStarted,
		EP: int(sq.From), N: int64(sq.Seq)})
	sq.Handle = s.c.InjectQueryCause(sq.From, sq.Query, sq.span)
	s.gActive.Add(1)
	sq.Handle.whenDone(func() {
		if sq.State != QueryRunning {
			return
		}
		s.gActive.Add(-1)
		sq.FinishedAt = s.now()
		if sq.Handle.Cancelled {
			sq.State = QueryCancelled
		} else {
			sq.State = QueryComplete
		}
	})
	return sq.Handle
}

// Cancel ends a non-terminal query: a queued (or still-admitted) query
// just leaves the lifecycle; a running one is cancelled in the cluster,
// which broadcasts the cancellation down its aggregation tree. Cancelling
// a completed query reclaims its remaining tree state without changing
// its terminal state; cancelling a shed or already-cancelled query is a
// no-op.
func (s *QueryService) Cancel(sq *ServicedQuery) {
	switch sq.State {
	case QueryAdmitted, QueryQueued:
		sq.State = QueryCancelled
		sq.FinishedAt = s.now()
		s.cCancelled.Inc()
	case QueryRunning, QueryComplete:
		s.c.CancelQuery(sq.Handle, sq.From)
	}
}

func (s *QueryService) mustBe(sq *ServicedQuery, want QueryState) {
	if sq.State != want {
		panic(fmt.Sprintf("core: query %d in state %v, want %v", sq.Seq, sq.State, want))
	}
}

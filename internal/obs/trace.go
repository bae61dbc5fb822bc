package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind labels a trace event with the lifecycle stage or protocol action it
// records. The query lifecycle proper is inject → disseminate → predict →
// partial → complete; the remaining kinds expose what the overlay and the
// maintenance protocols were doing underneath.
type Kind string

const (
	// KindQueued marks a query admitted by the query service and placed in
	// the scheduling queue. The query id does not exist yet (it is derived
	// from the injection time), so Query is empty and N carries the
	// service's arrival sequence number; span links connect the queued
	// event to the later inject.
	KindQueued Kind = "queued"
	// KindShed marks a query rejected by admission control. N is the
	// arrival sequence number. Shed queries never inject, so this is a
	// terminal event.
	KindShed Kind = "shed"
	// KindStarted marks a queued query leaving the queue and starting
	// injection. N is the arrival sequence number.
	KindStarted Kind = "started"
	// KindInject marks a query's submission at its injector endsystem.
	KindInject Kind = "inject"
	// KindDisseminate marks one dissemination range task starting at an
	// endsystem (the divide-and-conquer broadcast of §3.3).
	KindDisseminate Kind = "disseminate"
	// KindDissemRetry marks a reissued subrange request after a response
	// timeout.
	KindDissemRetry Kind = "dissem_retry"
	// KindDissemAbandon marks a subrange given up on once its reissues
	// (six, dissem's maxRetries) are spent; its contribution is missing
	// from the predictor.
	KindDissemAbandon Kind = "dissem_abandon"
	// KindDissemGiveup marks the permanent loss of a dissemination
	// subrange: reissues are exhausted and no endsystem will execute the
	// query on the subrange's behalf. N is the number of reissues spent, V
	// the fraction of the identifier namespace the lost subrange covered.
	KindDissemGiveup Kind = "dissem_giveup"
	// KindOnBehalf marks a predictor contribution generated on behalf of an
	// unavailable endsystem from replicated metadata, one event per subject
	// (verbose traces only). V is the subject's estimated relevant rows.
	KindOnBehalf Kind = "onbehalf"
	// KindPredict marks the aggregated completeness predictor reaching the
	// injector. V is the predictor's expected total row count.
	KindPredict Kind = "predict"
	// KindExec marks an endsystem executing the query against its local
	// table after observing it through dissemination, once per uptime
	// session. It carries no count.
	KindExec Kind = "exec"
	// KindAvailExec marks an endsystem executing a query it learned about
	// from a neighbor's query-list push after rejoining the overlay — the
	// availability-wait path: the edge from its parent span measures how
	// long the query waited for this endsystem to come back.
	KindAvailExec Kind = "avail_exec"
	// KindSubmit marks an endsystem submitting its local result into the
	// aggregation tree. N is the contribution version.
	KindSubmit Kind = "submit"
	// KindAggResubmit marks an unacknowledged aggregation-tree submission
	// being resent after a timeout. N is the resend attempt.
	KindAggResubmit Kind = "agg_resubmit"
	// KindPartial marks an incremental result update reaching the
	// injector. N is the number of contributing endsystems, V the
	// aggregated row count.
	KindPartial Kind = "partial"
	// KindComplete marks a query reaching its predicted completeness at
	// the injector: the handle's result stream hit the predictor's
	// expected total (N is the number of result updates delivered).
	KindComplete Kind = "complete"
	// KindCancel marks explicit query cancellation at the injector. N is
	// the number of result updates delivered before the cancel. Distinct
	// from KindComplete so trace summaries and invariant checkers can tell
	// an abandoned query from a finished one.
	KindCancel Kind = "cancel"

	// KindRouteDeliver marks an overlay delivery; N is the hop count
	// (verbose traces only).
	KindRouteDeliver Kind = "route_deliver"
	// KindRouteRetry marks a stale-routing-entry timeout and reroute
	// (verbose traces only).
	KindRouteRetry Kind = "route_retry"
	// KindRouteDrop marks a message dropped because it exceeded the
	// overlay's hop budget — previously an invisible failure.
	KindRouteDrop Kind = "route_drop"
	// KindLeafsetRepair marks a leafset repair after a member death.
	KindLeafsetRepair Kind = "leafset_repair"
	// KindJoin marks an overlay join completing: the join reply accepted.
	// It carries no count.
	KindJoin Kind = "join"
	// KindTakeover marks an aggregation-tree vertex primary takeover after
	// churn.
	KindTakeover Kind = "takeover"
	// KindMetaPush marks a push round of an endsystem's own metadata
	// record to its replica set (verbose traces only); it carries no count.
	KindMetaPush Kind = "meta_push"
	// KindMetaRereplicate marks churn-induced re-replication of a stored
	// record to a new replica-set member, one event per record forwarded
	// (verbose traces only).
	KindMetaRereplicate Kind = "meta_rerepl"

	// Fault-injection kinds (internal/fault). Every scheduled injection
	// emits its activation kind when it fires and KindFaultHeal when it
	// heals; N is the injection's index in the scenario so activations and
	// heals can be paired.
	//
	// KindFaultPartition marks a region partition activating. V is the
	// region index cut off.
	KindFaultPartition Kind = "fault_partition"
	// KindFaultBurst marks a Gilbert-Elliott burst-loss window opening.
	KindFaultBurst Kind = "fault_burst"
	// KindFaultJitter marks a latency-jitter window opening.
	KindFaultJitter Kind = "fault_jitter"
	// KindFaultSpike marks a transient delay spike starting. V is the extra
	// delay in seconds.
	KindFaultSpike Kind = "fault_spike"
	// KindFaultDup marks a message-duplication window opening. V is the
	// duplication probability.
	KindFaultDup Kind = "fault_dup"
	// KindFaultStraggle marks a per-region straggler window opening: every
	// message into or out of the region picks up a fixed extra delay. V is
	// the region index slowed down.
	KindFaultStraggle Kind = "fault_straggle"
	// KindFaultCrash marks one endsystem of a correlated crash cohort going
	// down. EP is the crashed endsystem, V the region index.
	KindFaultCrash Kind = "fault_crash"
	// KindFaultRestart marks one endsystem of a crash cohort coming back.
	KindFaultRestart Kind = "fault_restart"
	// KindFaultHeal marks an injection's fault window closing.
	KindFaultHeal Kind = "fault_heal"
)

// Event is one typed span event. T is virtual time since the start of the
// simulation run. Query is the short hex queryId for query-scoped events
// ("" otherwise). EP is the endpoint at which the event happened (-1 when
// no single endpoint applies). N and V carry the kind-specific count and
// value documented on each Kind.
//
// Span and Parent link events into a causal tree: Span is this event's
// unique id within the trace (allocated by Obs.EmitSpan, 0 when the event
// carries no span) and Parent is the span of the event that causally
// preceded it — the message send it answers, the timer that armed it, the
// phase it continues. Walking Parent links from a terminal event back to
// the root reconstructs the query's critical path; internal/obs/causal
// turns that walk into a per-phase delay decomposition.
type Event struct {
	T      time.Duration `json:"t"`
	Kind   Kind          `json:"kind"`
	Query  string        `json:"query,omitempty"`
	EP     int           `json:"ep"`
	N      int64         `json:"n,omitempty"`
	V      float64       `json:"v,omitempty"`
	Span   uint64        `json:"span,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
}

// Sink receives recorded events.
type Sink interface {
	Record(Event)
}

// Tracer forwards events to a sink. Verbose additionally records the
// high-frequency kinds (per-hop routing, periodic maintenance pushes).
type Tracer struct {
	Verbose bool
	sink    Sink
}

// NewTracer returns a tracer writing to sink.
func NewTracer(sink Sink) *Tracer { return &Tracer{sink: sink} }

// Record forwards one event to the sink.
func (t *Tracer) Record(ev Event) {
	if t != nil && t.sink != nil {
		t.sink.Record(ev)
	}
}

// RingSink retains the last capacity events in memory.
type RingSink struct {
	buf  []Event
	next int
	full bool
}

// NewRingSink returns a ring retaining capacity events (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{buf: make([]Event, capacity)}
}

// Record implements Sink.
func (r *RingSink) Record(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Events returns the retained events, oldest first.
func (r *RingSink) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// JSONLSink streams events as JSON lines to a writer.
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing one JSON object per line to w.
// Call Flush when the run finishes.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Record implements Sink.
func (s *JSONLSink) Record(ev Event) {
	if s.err == nil {
		s.err = s.enc.Encode(ev)
	}
}

// Flush drains buffered output and returns the first write error, if any.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// ReadJSONL parses a JSONL trace back into events. Blank lines are
// skipped; a malformed line is an error naming its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Package pastry implements the structured overlay beneath Seaweed,
// following MSPastry (Castro, Costa, Rowstron — DSN 2004): 128-bit
// endsystemIds in a circular namespace, prefix-based routing tables with
// base-2^b digits, leafsets of the l/2 nearest endsystems on each side,
// and a key-based routing (KBR) API that delivers each message to the live
// endsystem whose id is numerically closest to the key.
//
// The package runs on the simnet discrete-event simulator. Protocol
// messages — routing hops, joins, leafset repairs, and everything the
// application sends — are individually simulated with topology latency and
// per-endsystem bandwidth accounting. Two background costs are accounted
// in aggregate rather than as individual events, because simulating a 30 s
// heartbeat per leafset edge for tens of thousands of endsystems over four
// weeks of virtual time is computationally out of reach (the paper itself
// remarks that "the difficulties of running a discrete event simulator at
// this scale should not be underestimated"): leafset heartbeats and
// routing-table probe traffic are charged to the bandwidth statistics at
// their steady-state rates, and the failure-detection delay they would
// provide is modeled explicitly — a neighbor learns of a death only after
// a randomized delay of one to two heartbeat periods, and stale routing
// table entries cost a retry timeout when used.
package pastry

import (
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// B is the digit width of the namespace: keys are interpreted base 2^B
// (the paper's b=4). The overlay's routing tables and the aggregation
// trees' parent function V must agree on it, so both read this constant.
const B = 4

// The rest of the paper's MSPastry configuration (Table 1 and section
// 4.3): leafset size l=8, 30-second leafset heartbeats. Nothing varies
// them, so they are constants; Config holds what a caller sets.
const (
	// leafsetHalf is l/2: the number of leafset entries maintained on
	// each side of the node.
	leafsetHalf = 4
	// heartbeatPeriod is the leafset heartbeat interval, which bounds
	// failure-detection latency.
	heartbeatPeriod = 30 * time.Second
	// heartbeatBytes is the wire size of one leafset heartbeat message.
	heartbeatBytes = 32
	// retryTimeout is how long a node waits before concluding a forward
	// to a stale routing entry failed and rerouting.
	retryTimeout = time.Second
	// joinRetryTimeout is how long a joining node waits for a join reply
	// before retrying with a different contact.
	joinRetryTimeout = 10 * retryTimeout
	// accountingPeriod is how often aggregate heartbeat/probe costs are
	// folded into the bandwidth statistics.
	accountingPeriod = 10 * time.Minute
)

// Config parameterizes the overlay.
type Config struct {
	// Seed drives protocol randomness (detection jitter, probe targets).
	Seed int64
}

// DefaultConfig returns the paper's overlay configuration.
func DefaultConfig() Config {
	return Config{}
}

// NodeRef identifies an overlay node: its endsystemId and its network
// attachment point.
type NodeRef struct {
	ID ids.ID
	EP simnet.Endpoint
}

// Application receives upcalls from a node, in the style of the common KBR
// API the paper cites. Implementations are the Seaweed layers.
type Application interface {
	// Deliver is called on the key's root when a routed message arrives.
	Deliver(key ids.ID, from simnet.Endpoint, payload any)
	// LeafsetChanged is called after the node's leafset membership
	// changes (a neighbor died or a new node joined nearby). Seaweed uses
	// it to maintain metadata replica sets.
	LeafsetChanged()
}

// Traced is implemented by routed payloads that belong to a query. The
// observability layer uses it to attribute routing events (per-hop
// deliveries, retries, hop-limit drops) to the query's trace.
type Traced interface {
	// TraceQuery returns the query's trace label.
	TraceQuery() string
}

// traceQuery returns the trace label of a payload, or "" for untraced
// payloads.
func traceQuery(payload any) string {
	if t, ok := payload.(Traced); ok {
		return t.TraceQuery()
	}
	return ""
}

// TracedSpan is implemented by routed payloads that carry a causal span:
// per-hop routing events (verbose traces) chain onto the sender-side
// event that caused the send, so a route's hop sequence appears as a
// chain inside the query's span tree.
type TracedSpan interface {
	// TraceSpan returns the payload's causal span (0 when untraced).
	TraceSpan() uint64
}

// traceSpan returns the causal span of a payload, or 0.
func traceSpan(payload any) uint64 {
	if t, ok := payload.(TracedSpan); ok {
		return t.TraceSpan()
	}
	return 0
}

// refBytes is the wire size of one NodeRef in protocol messages.
const refBytes = ids.Bytes + 4

// Message payload types exchanged between nodes. Sizes are computed from
// their contents; the structs themselves travel by pointer inside the
// simulator.

// routeEnvelope carries an application message toward a key. Envelopes
// are pooled on the Ring: one is taken per Route call, travels the whole
// multi-hop path inside hopMsg wrappers, and is recycled at the hop that
// finally delivers (or drops) it. Envelopes lost in flight fall to the
// garbage collector.
type routeEnvelope struct {
	Key     ids.ID
	Payload any
	Size    int // application payload wire size
	Class   simnet.Class
	Hops    int
	span    uint64         // causal span of the payload's send (0 untraced)
	next    *routeEnvelope // Ring free list
}

// envelopeOverhead is the wire overhead of one routing hop: key, flags,
// and the per-hop acknowledgment MSPastry uses for reliable delivery.
const envelopeOverhead = ids.Bytes + 8 + 16

// joinRequest is routed toward the joiner's id; nodes along the path
// append routing rows, and the root replies with its leafset.
type joinRequest struct {
	Joiner NodeRef
	Rows   []NodeRef // routing entries gathered along the path
	Hops   int
}

// joinReply completes a join: the root's leafset seeds the joiner's.
type joinReply struct {
	Leafset []NodeRef
	Rows    []NodeRef
}

// nodeAnnounce tells existing nodes about a newly joined node so they can
// update leafsets and routing tables.
type nodeAnnounce struct {
	Node NodeRef
}

// leafsetPull asks a node for its current leafset (used during repair).
type leafsetPull struct {
	From NodeRef
}

// leafsetPush answers a leafsetPull.
type leafsetPush struct {
	Leafset []NodeRef
}

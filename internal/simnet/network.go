package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Class labels each message with the overhead category it contributes to.
// The paper's Figure 9(a) splits total overhead into MSPastry overhead,
// Seaweed maintenance overhead (metadata replication), and query overhead
// (dissemination, prediction, and result aggregation).
type Class int

const (
	// ClassPastry is overlay upkeep traffic: leafset heartbeats, routing
	// table maintenance, join traffic.
	ClassPastry Class = iota
	// ClassMaintenance is Seaweed metadata replication traffic: pushes of
	// column histograms and availability models to replica sets, plus
	// churn-induced re-replication.
	ClassMaintenance
	// ClassQuery is per-query traffic: dissemination, completeness
	// predictor aggregation, heartbeats and result aggregation.
	ClassQuery

	// NumClasses is the number of traffic classes.
	NumClasses
)

// String returns the class name used in experiment output.
func (c Class) String() string {
	switch c {
	case ClassPastry:
		return "pastry"
	case ClassMaintenance:
		return "maintenance"
	case ClassQuery:
		return "query"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Endpoint identifies an endsystem attached to the network, as a dense
// index in [0, NumEndpoints).
type Endpoint int

// Handler receives messages delivered to an endsystem. Implementations are
// typically overlay nodes; they must tolerate delivery while the endsystem
// is logically offline (and simply drop the message) because in-flight
// messages are not recalled when an endsystem fails.
type Handler interface {
	HandleMessage(from Endpoint, payload any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Endpoint, payload any)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from Endpoint, payload any) { f(from, payload) }

// Fate is a fault hook's verdict on one message: drop it, deliver it twice,
// and/or delay it beyond the topology's base latency.
type Fate struct {
	Drop       bool
	Duplicate  bool
	ExtraDelay time.Duration
}

// FaultHook is consulted on every Send after the Bernoulli loss model. It
// sees the endpoints, their attachment routers, and the traffic class, and
// returns the message's fate. Implementations live in internal/fault; the
// network itself stays fault-agnostic.
type FaultHook interface {
	OnSend(from, to Endpoint, fromRouter, toRouter int, class Class) Fate
}

// SingleDelivery marks payloads that must be delivered at most once because
// the receiver recycles them into a free list or pool at delivery time. The
// duplication fault skips such payloads: in a real network the duplicate
// would be an independent copy of the packet, but here a second delivery of
// the same recycled wrapper would read freed state.
type SingleDelivery interface {
	SingleDelivery()
}

// NetworkConfig parameterizes a Network.
type NetworkConfig struct {
	// LossRate is the independent probability that any message is dropped
	// in flight. The MSPastry evaluation runs at up to 5% loss; Seaweed's
	// experiments default to 0.
	LossRate float64
	// Horizon is the expected duration of the simulation; it sizes the
	// per-bucket accounting arrays.
	Horizon time.Duration
	// Seed drives endpoint→router attachment and message-loss randomness.
	// The two draws use independent SplitMix64-derived streams, so the
	// attachment (and thus every delay in the run) is identical across
	// loss and fault configurations.
	Seed int64
}

// DefaultNetworkConfig returns the configuration used by the paper's
// packet-level experiments: no loss, 1-hour accounting buckets, 4-week
// horizon.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{Horizon: 4 * 7 * 24 * time.Hour}
}

// Network simulates message exchange between endsystems over a router
// topology. It charges transmission bytes to the sender and reception bytes
// to the receiver, delivers messages after the topology's one-way delay, and
// optionally drops messages at a configured loss rate (transmission is still
// charged for lost messages).
type Network struct {
	sched    *Wheel
	topo     *Topology
	cfg      NetworkConfig
	lossRng  *rand.Rand // message-loss stream
	router   []int      // endpoint -> router index
	handlers []Handler
	stats    *Stats
	fault    FaultHook

	o      *obs.Obs
	cSends *obs.Counter // net_sends
	cLost  *obs.Counter // net_lost (dropped by the loss model)
}

// RNG stream indices for NetworkConfig.Seed. Keeping attachment and loss on
// separate SplitMix64-derived streams means turning loss (or faults) on or
// off never perturbs where endsystems attach.
const (
	rngStreamAttach = iota
	rngStreamLoss
)

// NewNetwork creates a network of numEndpoints endsystems attached to
// routers of topo, driven by the wheel sched. Attachment is random but
// deterministic in cfg.Seed, matching the paper ("each endsystem was
// directly attached by a LAN link ... to a randomly chosen router").
func NewNetwork(sched *Wheel, topo *Topology, numEndpoints int, cfg NetworkConfig) *Network {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * 7 * 24 * time.Hour
	}
	attachRng := rand.New(ids.NewSource(runner.SplitSeed(cfg.Seed, rngStreamAttach)))
	router := make([]int, numEndpoints)
	for i := range router {
		router[i] = attachRng.Intn(topo.NumRouters())
	}
	return &Network{
		sched:    sched,
		topo:     topo,
		cfg:      cfg,
		lossRng:  rand.New(ids.NewSource(runner.SplitSeed(cfg.Seed, rngStreamLoss))),
		router:   router,
		handlers: make([]Handler, numEndpoints),
		stats:    newStats(numEndpoints, cfg),
	}
}

// Scheduler returns the wheel driving the network.
func (n *Network) Scheduler() *Wheel { return n.sched }

// SetObs attaches the observability layer. Call before protocol layers
// are built on top of the network: they cache their metric handles at
// construction time. A nil layer (the default) disables collection.
func (n *Network) SetObs(o *obs.Obs) {
	n.o = o
	n.cSends = o.Counter("net_sends")
	n.cLost = o.Counter("net_lost")
}

// Obs returns the attached observability layer (nil when disabled).
func (n *Network) Obs() *obs.Obs { return n.o }

// NumEndpoints returns the number of endsystems.
func (n *Network) NumEndpoints() int { return len(n.handlers) }

// RouterOf returns the router an endsystem is attached to.
func (n *Network) RouterOf(ep Endpoint) int { return n.router[ep] }

// Topology returns the router topology the network runs over.
func (n *Network) Topology() *Topology { return n.topo }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook
// consulted on every Send.
func (n *Network) SetFaultHook(h FaultHook) { n.fault = h }

// Stats returns the bandwidth accounting collected so far.
func (n *Network) Stats() *Stats { return n.stats }

// Bind installs the message handler for an endsystem. Rebinding replaces
// the previous handler.
func (n *Network) Bind(ep Endpoint, h Handler) {
	n.handlers[ep] = h
}

// Delay returns the one-way delay between two endsystems.
func (n *Network) Delay(from, to Endpoint) time.Duration {
	return n.topo.OneWayDelay(n.router[from], n.router[to])
}

// AccountAggregate charges bandwidth to an endsystem without simulating
// individual messages. Protocol layers use it for steady-state background
// traffic (e.g. overlay heartbeats) whose per-message simulation would be
// computationally prohibitive at scale; the bytes land in the current
// statistics bucket.
func (n *Network) AccountAggregate(ep Endpoint, class Class, txBytes, rxBytes int) {
	now := n.sched.now
	n.stats.accountTx(ep, class, txBytes, now)
	n.stats.accountRx(ep, class, rxBytes, now)
}

// Send transmits a message of the given wire size from one endsystem to
// another. The sender is charged size bytes of transmission immediately and
// the receiver size bytes of reception at delivery time. Delivery invokes
// the receiver's bound handler after the topology delay, unless the message
// is lost. Sending to self is delivered after twice the LAN delay.
func (n *Network) Send(from, to Endpoint, size int, class Class, payload any) {
	now := n.sched.now
	n.stats.accountTx(from, class, size, now)
	n.cSends.Inc()
	if n.cfg.LossRate > 0 && n.lossRng.Float64() < n.cfg.LossRate {
		n.cLost.Inc()
		return
	}
	delay := n.Delay(from, to)
	if n.fault != nil {
		fate := n.fault.OnSend(from, to, n.router[from], n.router[to], class)
		if fate.Drop {
			return
		}
		delay += fate.ExtraDelay
		if fate.Duplicate {
			if _, single := payload.(SingleDelivery); !single {
				n.sched.sendAt(now+delay, n, from, to, size, class, payload)
			}
		}
	}
	n.sched.sendAt(now+delay, n, from, to, size, class, payload)
}

// deliver completes a Send at the receiver: reception accounting plus the
// bound handler's upcall. Called by the wheel when an evDeliver event
// fires.
func (n *Network) deliver(from, to Endpoint, size int, class Class, payload any) {
	n.stats.accountRx(to, class, size, n.sched.now)
	if h := n.handlers[to]; h != nil {
		h.HandleMessage(from, payload)
	}
}

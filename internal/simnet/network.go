package simnet

import (
	"fmt"
	"math/rand"
	"time"

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
	// PerEndpointStats enables the per-endsystem per-bucket byte counters
	// needed for load-distribution CDFs. It costs
	// O(endsystems × Horizon/statsBucket) memory; disable for very large
	// sweeps that only need aggregate numbers.
	PerEndpointStats bool
	// Seed drives endpoint→router attachment and message-loss randomness.
	// The two draws use independent SplitMix64-derived streams, so the
	// attachment (and thus every delay in the run) is identical across
	// loss and fault configurations.
	Seed int64
}

// DefaultNetworkConfig returns the configuration used by the paper's
// packet-level experiments: no loss, 1-hour accounting buckets, 4-week
// horizon, per-endsystem statistics enabled.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Horizon:          4 * 7 * 24 * time.Hour,
		PerEndpointStats: true,
	}
}

// Network simulates message exchange between endsystems over a router
// topology. It charges transmission bytes to the sender and reception bytes
// to the receiver, delivers messages after the topology's one-way delay, and
// optionally drops messages at a configured loss rate (transmission is still
// charged for lost messages).
type Network struct {
	sched Scheduler
	// eng is non-nil when sched is the Sharded engine; wheel is non-nil
	// when sched is a single Wheel. Exactly one of the two is set.
	eng   *Sharded
	wheel *Wheel

	topo     *Topology
	cfg      NetworkConfig
	lossRng  []*rand.Rand // per-shard message-loss streams
	router   []int        // endpoint -> router index
	shardOf  []int32      // endpoint -> shard (region of its router; 0 when serial)
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
// routers of topo. Attachment is random but deterministic in cfg.Seed,
// matching the paper ("each endsystem was directly attached by a LAN link
// ... to a randomly chosen router"). The scheduler must be a *Wheel (the
// serial engine) or a *Sharded engine; with the sharded engine every
// endsystem's timers and deliveries live on the wheel of its router's
// region.
func NewNetwork(sched Scheduler, topo *Topology, numEndpoints int, cfg NetworkConfig) *Network {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * 7 * 24 * time.Hour
	}
	attachRng := rand.New(rand.NewSource(runner.SplitSeed(cfg.Seed, rngStreamAttach)))
	router := make([]int, numEndpoints)
	for i := range router {
		router[i] = attachRng.Intn(topo.NumRouters())
	}
	n := &Network{
		sched:    sched,
		topo:     topo,
		cfg:      cfg,
		router:   router,
		handlers: make([]Handler, numEndpoints),
	}
	switch s := sched.(type) {
	case *Wheel:
		n.wheel = s
	case *Sharded:
		if s.NumShards() > 1 {
			n.eng = s
		} else {
			// A one-region sharded engine is the serial engine in all but
			// name; route through its single wheel to keep the legacy
			// RNG streams and the direct-send path bit-identical.
			n.wheel = s.wheelFor(0)
		}
	default:
		panic("simnet: NewNetwork needs a *Wheel or *Sharded scheduler")
	}
	numShards := 1
	n.shardOf = make([]int32, numEndpoints)
	if n.eng != nil {
		numShards = n.eng.NumShards()
		for i, r := range router {
			n.shardOf[i] = int32(topo.Region(r))
		}
	}
	// Loss streams: the serial stream is exactly the historical one, so
	// every existing seed reproduces byte-identically. Per-shard streams
	// split off it; draws happen in each shard's deterministic execution
	// order, making loss worker-count independent.
	lossSeed := runner.SplitSeed(cfg.Seed, rngStreamLoss)
	n.lossRng = make([]*rand.Rand, numShards)
	if numShards == 1 {
		n.lossRng[0] = rand.New(rand.NewSource(lossSeed))
	} else {
		for i := range n.lossRng {
			n.lossRng[i] = rand.New(rand.NewSource(runner.SplitSeed(lossSeed, int64(i))))
		}
	}
	n.stats = newStats(numEndpoints, numShards, cfg)
	return n
}

// Scheduler returns the scheduler driving the network (the engine itself,
// not a per-shard wheel).
func (n *Network) Scheduler() Scheduler { return n.sched }

// NumShards returns the number of logical shards (1 for the serial engine).
func (n *Network) NumShards() int {
	if n.eng != nil {
		return n.eng.NumShards()
	}
	return 1
}

// ShardOf returns the shard an endsystem's state lives on.
func (n *Network) ShardOf(ep Endpoint) int { return int(n.shardOf[ep]) }

// wheelFor returns shard i's wheel.
func (n *Network) wheelFor(i int32) *Wheel {
	if n.eng != nil {
		return n.eng.wheelFor(int(i))
	}
	return n.wheel
}

// SchedulerFor returns the scheduler an endsystem must use for its own
// timers: its shard's wheel. Endsystem state may only be touched from
// events on its own shard; scheduling node work anywhere else is a data
// race under the sharded engine.
func (n *Network) SchedulerFor(ep Endpoint) Scheduler { return n.wheelFor(n.shardOf[ep]) }

// ShardScheduler returns shard i's wheel (the only wheel, for a serial
// engine). Protocol layers use it for per-shard periodic work such as
// aggregate bandwidth accounting.
func (n *Network) ShardScheduler(i int) Scheduler { return n.wheelFor(int32(i)) }

// Running reports whether the sharded engine is mid-run (between windows
// state is mutated only at barriers). Always false for the serial engine,
// whose callers never need to defer state commits.
func (n *Network) Running() bool {
	return n.eng != nil && n.eng.running.Load()
}

// OnBarrier registers fn to run single-threaded at every sharded window
// barrier (no-op on the serial engine, where there are no barriers and
// state commits apply immediately).
func (n *Network) OnBarrier(fn func()) {
	if n.eng != nil {
		n.eng.onBarrier(fn)
	}
}

// ForceSerial pins the sharded engine to one worker (see
// Sharded.ForceSerial); no-op on the serial engine.
func (n *Network) ForceSerial(reason string) {
	if n.eng != nil {
		n.eng.ForceSerial(reason)
	}
}

// CallAfter schedules fn to run d after from's current virtual time, on
// to's shard. It is the cross-shard-safe form of After for protocol-level
// reactions that touch another endsystem's state (e.g. failure
// notifications): mid-run the call is routed through the window barrier's
// canonical merge; delays shorter than the lookahead are clamped up to the
// window floor, which callers accept by using CallAfter.
func (n *Network) CallAfter(from, to Endpoint, d time.Duration, fn func()) {
	sf, st := n.shardOf[from], n.shardOf[to]
	at := n.wheelFor(sf).Now() + d
	if sf == st || n.eng == nil || !n.eng.running.Load() {
		n.wheelFor(st).At(at, fn)
		return
	}
	n.eng.enqueue(xop{at: at, src: sf, dst: st, fn: fn})
}

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
// consulted on every Send. Installing a hook pins the sharded engine to
// one worker: the hook is shared mutable state (schedules, rngs)
// consulted from every shard's send path.
func (n *Network) SetFaultHook(h FaultHook) {
	n.fault = h
	if h != nil {
		n.ForceSerial("fault hook")
	}
}

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
	s := n.shardOf[ep]
	now := n.wheelFor(s).Now()
	n.stats.accountTx(s, ep, class, txBytes, now)
	n.stats.accountRx(s, ep, class, rxBytes, now)
}

// Send transmits a message of the given wire size from one endsystem to
// another. The sender is charged size bytes of transmission immediately and
// the receiver size bytes of reception at delivery time. Delivery invokes
// the receiver's bound handler after the topology delay, unless the message
// is lost. Sending to self is delivered after twice the LAN delay.
func (n *Network) Send(from, to Endpoint, size int, class Class, payload any) {
	sf := n.shardOf[from]
	now := n.wheelFor(sf).Now()
	n.stats.accountTx(sf, from, class, size, now)
	n.cSends.Inc()
	if n.cfg.LossRate > 0 && n.lossRng[sf].Float64() < n.cfg.LossRate {
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
				n.route(sf, now+delay, from, to, size, class, payload)
			}
		}
	}
	n.route(sf, now+delay, from, to, size, class, payload)
}

// route files one delivery: directly on the destination wheel when sender
// and receiver share a shard (or the engine is quiescent, with all shard
// clocks aligned), through the source shard's outbox otherwise. The direct
// path is a pooled struct event (see scheduler.go): the steady-state
// message path allocates neither a closure nor a Timer.
func (n *Network) route(sf int32, at time.Duration, from, to Endpoint,
	size int, class Class, payload any) {
	st := n.shardOf[to]
	if sf == st || n.eng == nil || !n.eng.running.Load() {
		n.wheelFor(st).sendAt(at, n, from, to, size, class, payload)
		return
	}
	n.eng.enqueue(xop{at: at, src: sf, dst: st, net: n,
		from: from, to: to, size: size, cls: class, pay: payload})
}

// deliver completes a Send at the receiver: reception accounting plus the
// bound handler's upcall. Called by the receiver shard's wheel when an
// evDeliver event fires.
func (n *Network) deliver(from, to Endpoint, size int, class Class, payload any) {
	st := n.shardOf[to]
	n.stats.accountRx(st, to, class, size, n.wheelFor(st).now)
	if h := n.handlers[to]; h != nil {
		h.HandleMessage(from, payload)
	}
}

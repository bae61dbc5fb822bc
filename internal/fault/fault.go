// Package fault is a deterministic, virtual-time fault-injection layer
// between simnet.Network and the router topology. A scripted
// fault.Scenario — a list of timed injections — drives an Injector that
// implements simnet.FaultHook: region partitions (every endsystem attached
// to a router in the failed region is cut off from the rest, intra-region
// traffic flows), a Gilbert-Elliott burst-loss channel alongside the
// existing Bernoulli loss, per-message latency jitter, transient delay
// spikes, message duplication, per-region straggler cohorts (a fixed extra
// delay on every message touching the slow region), and correlated
// crash/restart cohorts (all endsystems attached to one region) layered on
// top of the availability trace.
//
// Determinism: every random draw comes from SplitMix64-derived streams of
// the scenario seed (one per fault type, reusing runner.SplitSeed), all
// state transitions ride the virtual-time scheduler, and the report is
// appended in scheduler order — so the same seed yields a byte-identical
// fault.Report at any worker count.
//
// The package deliberately knows nothing about pastry or the Seaweed
// layers above it. The overlay learns of partitions through a
// reachability oracle (Reachable + OnChange callbacks wired by the chaos
// harness in internal/core), and crash cohorts execute through an
// injected callback, keeping the dependency arrow pointing downward.
package fault

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// Type names a fault class.
type Type string

const (
	// Partition cuts one topology region off from the rest of the
	// network: messages crossing the cut are dropped, intra-region (and
	// rest-of-network) traffic flows. Heals on schedule.
	Partition Type = "partition"
	// BurstLoss runs a two-state Gilbert-Elliott channel over all
	// traffic: sojourns in the good/bad states are exponential with the
	// configured means, and each state drops messages Bernoulli at its
	// own rate.
	BurstLoss Type = "burstloss"
	// Jitter adds a uniform random extra delay to every message.
	Jitter Type = "jitter"
	// Spike adds a fixed extra delay to every message (a transient
	// routing detour).
	Spike Type = "spike"
	// Duplicate delivers a random subset of messages twice.
	Duplicate Type = "duplicate"
	// Crash takes every endsystem of one region down at once and
	// restarts the cohort when the injection heals.
	Crash Type = "crash"
	// Straggler slows one region down: every message into or out of the
	// region picks up a fixed extra delay (a slow cohort — overloaded
	// hosts, a congested uplink — rather than a dead one). Deliberately
	// RNG-free so activating a straggler perturbs no loss or jitter
	// stream.
	Straggler Type = "straggler"
)

// Injection is one scheduled fault: activate at At, heal Duration later
// (Duration 0 never heals). The remaining fields parameterize the type.
type Injection struct {
	Type     Type          `json:"type"`
	At       time.Duration `json:"at"`
	Duration time.Duration `json:"duration"`

	// Region targets Partition, Crash and Straggler (see
	// simnet.Topology.Region).
	Region int `json:"region,omitempty"`

	// Gilbert-Elliott channel (BurstLoss).
	GoodLoss float64       `json:"good_loss,omitempty"`
	BadLoss  float64       `json:"bad_loss,omitempty"`
	MeanGood time.Duration `json:"mean_good,omitempty"`
	MeanBad  time.Duration `json:"mean_bad,omitempty"`

	// JitterMax bounds the uniform extra delay (Jitter).
	JitterMax time.Duration `json:"jitter_max,omitempty"`
	// SpikeDelay is the fixed extra delay (Spike).
	SpikeDelay time.Duration `json:"spike_delay,omitempty"`
	// DupProb is the duplication probability (Duplicate).
	DupProb float64 `json:"dup_prob,omitempty"`
	// SlowDelay is the fixed extra delay on every message crossing into
	// or out of the slowed region (Straggler).
	SlowDelay time.Duration `json:"slow_delay,omitempty"`
}

// Heal returns the virtual time the injection heals, or -1 if it never
// does.
func (in Injection) Heal() time.Duration {
	if in.Duration <= 0 {
		return -1
	}
	return in.At + in.Duration
}

// Scenario is a named, scripted fault schedule plus the recommended query
// injection instant for chaos runs that want a query in flight while the
// faults land.
type Scenario struct {
	Name       string        `json:"name"`
	QueryAt    time.Duration `json:"query_at"`
	Injections []Injection   `json:"injections"`
}

// FinalHeal returns the instant the last healing injection heals (0 for
// an empty scenario). Injections with Duration 0 never heal and are
// excluded.
func (s Scenario) FinalHeal() time.Duration {
	var last time.Duration
	for _, in := range s.Injections {
		if h := in.Heal(); h > last {
			last = h
		}
	}
	return last
}

// RNG streams of the scenario seed, far above the per-endsystem streams
// the cluster derives from the same base seed.
const (
	streamGE = 1_000_003 + iota
	streamJitter
	streamDup
)

// geState is one active Gilbert-Elliott channel.
type geState struct {
	inj   Injection
	index int
	bad   bool
	flip  simnet.Timer
}

// Injector schedules a Scenario's injections on the virtual clock and
// implements simnet.FaultHook for the message-level faults. Install with
// net.SetFaultHook(inj) and call Start once.
type Injector struct {
	sched    *simnet.Wheel
	net      *simnet.Network
	topo     *simnet.Topology
	scenario Scenario

	rngGE     *rand.Rand
	rngJitter *rand.Rand
	rngDup    *rand.Rand

	cut     map[int]bool // partitioned regions
	bursts  []*geState   // active GE channels, activation order
	jitters map[int]time.Duration
	spikes  map[int]time.Duration
	dups    map[int]float64
	slows   map[int]Injection // active Straggler injections by index
	// Aggregates recomputed on activation/heal so the per-message path
	// never iterates a map (map order would perturb rng draw order).
	maxJitter time.Duration
	sumSpike  time.Duration
	maxDup    float64
	// slowRegion holds, per region, the max active straggler delay
	// (keyed lookups only on the per-message path — deterministic, and
	// no RNG stream is consumed).
	slowRegion map[int]time.Duration

	// crashFn, when set, takes one endsystem down (down=true) or back up.
	// The chaos harness wires it to core.Node GoDown/GoUp.
	crashFn func(ep simnet.Endpoint, down bool)
	// onChange listeners run after the reachability relation changed (a
	// partition formed or healed); the harness wires pastry's
	// ReachabilityChanged here.
	onChange []func()

	report  Report
	started bool

	o        *obs.Obs
	cDrops   *obs.Counter // fault_drops: messages dropped by faults
	cDups    *obs.Counter // fault_dup_msgs: messages duplicated
	cInject  *obs.Counter // fault_injections: fault windows opened
	cHeals   *obs.Counter // fault_heals: fault windows closed
	cCrashes *obs.Counter // fault_crashes: endsystems crashed by cohorts
}

// NewInjector creates an injector for the scenario over the network. The
// seed is split per fault type with runner.SplitSeed; pass the cluster
// seed for byte-reproducible runs.
func NewInjector(net *simnet.Network, scenario Scenario, seed int64) *Injector {
	o := net.Obs()
	return &Injector{
		sched:      net.Scheduler(),
		net:        net,
		topo:       net.Topology(),
		scenario:   scenario,
		rngGE:      rand.New(rand.NewSource(runner.SplitSeed(seed, streamGE))),
		rngJitter:  rand.New(rand.NewSource(runner.SplitSeed(seed, streamJitter))),
		rngDup:     rand.New(rand.NewSource(runner.SplitSeed(seed, streamDup))),
		cut:        make(map[int]bool),
		jitters:    make(map[int]time.Duration),
		spikes:     make(map[int]time.Duration),
		dups:       make(map[int]float64),
		slows:      make(map[int]Injection),
		slowRegion: make(map[int]time.Duration),
		report:     Report{Scenario: scenario.Name, Seed: seed},
		o:          o,
		cDrops:     o.Counter("fault_drops"),
		cDups:      o.Counter("fault_dup_msgs"),
		cInject:    o.Counter("fault_injections"),
		cHeals:     o.Counter("fault_heals"),
		cCrashes:   o.Counter("fault_crashes"),
	}
}

// Scenario returns the scenario the injector runs.
func (inj *Injector) Scenario() Scenario { return inj.scenario }

// SetCrashFunc installs the callback that takes one endsystem down or
// brings it back; Crash injections are recorded but act on nothing
// without it.
func (inj *Injector) SetCrashFunc(f func(ep simnet.Endpoint, down bool)) { inj.crashFn = f }

// OnChange registers a listener invoked (in registration order) after
// every reachability change — a partition forming or healing.
func (inj *Injector) OnChange(f func()) { inj.onChange = append(inj.onChange, f) }

// Start schedules every injection's activation and heal on the virtual
// clock. Call once, before running the scheduler past the first At.
func (inj *Injector) Start() {
	if inj.started {
		return
	}
	inj.started = true
	for i := range inj.scenario.Injections {
		i := i
		in := inj.scenario.Injections[i]
		inj.sched.At(in.At, func() { inj.activate(i) })
		if in.Duration > 0 {
			inj.sched.At(in.At+in.Duration, func() { inj.heal(i) })
		}
	}
}

// Report returns the accumulated injection log. The scheduler appends to
// it in virtual-time order, so it is deterministic for a given seed.
func (inj *Injector) Report() *Report { return &inj.report }

// Reachable reports whether two endsystems can currently exchange
// messages: false only across an active partition cut. This is the oracle
// the overlay's ground-truth repair paths consult.
func (inj *Injector) Reachable(a, b simnet.Endpoint) bool {
	if len(inj.cut) == 0 {
		return true
	}
	ra := inj.topo.Region(inj.net.RouterOf(a))
	rb := inj.topo.Region(inj.net.RouterOf(b))
	return ra == rb || (!inj.cut[ra] && !inj.cut[rb])
}

// EndpointsInRegion returns the endsystems attached to routers of the
// region, in endpoint order.
func (inj *Injector) EndpointsInRegion(region int) []simnet.Endpoint {
	var out []simnet.Endpoint
	for ep := 0; ep < inj.net.NumEndpoints(); ep++ {
		if inj.topo.Region(inj.net.RouterOf(simnet.Endpoint(ep))) == region {
			out = append(out, simnet.Endpoint(ep))
		}
	}
	return out
}

// PartitionedRegions returns the currently cut regions (sorted).
func (inj *Injector) PartitionedRegions() []int {
	var out []int
	for r := 0; r < inj.topo.NumRegions(); r++ {
		if inj.cut[r] {
			out = append(out, r)
		}
	}
	return out
}

// OnSend implements simnet.FaultHook: the per-message fate under the
// currently active faults. Partition drops are checked first (a cut is
// absolute), then the burst channels, then delay and duplication faults.
func (inj *Injector) OnSend(from, to simnet.Endpoint, fromRouter, toRouter int, class simnet.Class) simnet.Fate {
	var fate simnet.Fate
	if len(inj.cut) > 0 {
		fr, tr := inj.topo.Region(fromRouter), inj.topo.Region(toRouter)
		if fr != tr && (inj.cut[fr] || inj.cut[tr]) {
			inj.cDrops.Inc()
			fate.Drop = true
			return fate
		}
	}
	for _, g := range inj.bursts {
		p := g.inj.GoodLoss
		if g.bad {
			p = g.inj.BadLoss
		}
		if p > 0 && inj.rngGE.Float64() < p {
			inj.cDrops.Inc()
			fate.Drop = true
			return fate
		}
	}
	if inj.maxJitter > 0 {
		fate.ExtraDelay += time.Duration(inj.rngJitter.Float64() * float64(inj.maxJitter))
	}
	fate.ExtraDelay += inj.sumSpike
	if len(inj.slowRegion) > 0 {
		// A message is as slow as the slowest region it touches.
		fr := inj.slowRegion[inj.topo.Region(fromRouter)]
		if tr := inj.slowRegion[inj.topo.Region(toRouter)]; tr > fr {
			fr = tr
		}
		fate.ExtraDelay += fr
	}
	if inj.maxDup > 0 && inj.rngDup.Float64() < inj.maxDup {
		inj.cDups.Inc()
		fate.Duplicate = true
	}
	return fate
}

// activate opens injection i's fault window.
func (inj *Injector) activate(i int) {
	in := inj.scenario.Injections[i]
	now := inj.sched.Now()
	rec := InjectionRecord{Index: i, Type: in.Type, At: now, Healed: -1, Region: -1}
	inj.cInject.Inc()
	switch in.Type {
	case Partition:
		inj.cut[in.Region] = true
		rec.Region = in.Region
		inj.o.Emit(obs.Event{Kind: obs.KindFaultPartition, EP: -1, N: int64(i), V: float64(in.Region)})
		inj.notifyChange()
	case BurstLoss:
		g := &geState{inj: in, index: i}
		inj.bursts = append(inj.bursts, g)
		inj.armFlip(g)
		inj.o.Emit(obs.Event{Kind: obs.KindFaultBurst, EP: -1, N: int64(i), V: in.BadLoss})
	case Jitter:
		inj.jitters[i] = in.JitterMax
		inj.recomputeDelays()
		inj.o.Emit(obs.Event{Kind: obs.KindFaultJitter, EP: -1, N: int64(i), V: in.JitterMax.Seconds()})
	case Spike:
		inj.spikes[i] = in.SpikeDelay
		inj.recomputeDelays()
		inj.o.Emit(obs.Event{Kind: obs.KindFaultSpike, EP: -1, N: int64(i), V: in.SpikeDelay.Seconds()})
	case Duplicate:
		inj.dups[i] = in.DupProb
		inj.recomputeDelays()
		inj.o.Emit(obs.Event{Kind: obs.KindFaultDup, EP: -1, N: int64(i), V: in.DupProb})
	case Straggler:
		rec.Region = in.Region
		inj.slows[i] = in
		inj.recomputeDelays()
		inj.o.Emit(obs.Event{Kind: obs.KindFaultStraggle, EP: -1, N: int64(i), V: float64(in.Region)})
	case Crash:
		rec.Region = in.Region
		for _, ep := range inj.EndpointsInRegion(in.Region) {
			rec.Endpoints++
			inj.cCrashes.Inc()
			inj.o.Emit(obs.Event{Kind: obs.KindFaultCrash, EP: int(ep), N: int64(i), V: float64(in.Region)})
			if inj.crashFn != nil {
				inj.crashFn(ep, true)
			}
		}
	}
	inj.report.Injections = append(inj.report.Injections, rec)
}

// heal closes injection i's fault window.
func (inj *Injector) heal(i int) {
	in := inj.scenario.Injections[i]
	now := inj.sched.Now()
	inj.cHeals.Inc()
	switch in.Type {
	case Partition:
		delete(inj.cut, in.Region)
		inj.notifyChange()
	case BurstLoss:
		for k, g := range inj.bursts {
			if g.index == i {
				g.flip.Cancel()
				inj.bursts = append(inj.bursts[:k], inj.bursts[k+1:]...)
				break
			}
		}
	case Jitter:
		delete(inj.jitters, i)
		inj.recomputeDelays()
	case Spike:
		delete(inj.spikes, i)
		inj.recomputeDelays()
	case Duplicate:
		delete(inj.dups, i)
		inj.recomputeDelays()
	case Straggler:
		delete(inj.slows, i)
		inj.recomputeDelays()
	case Crash:
		for _, ep := range inj.EndpointsInRegion(in.Region) {
			inj.o.Emit(obs.Event{Kind: obs.KindFaultRestart, EP: int(ep), N: int64(i)})
			if inj.crashFn != nil {
				inj.crashFn(ep, false)
			}
		}
	}
	inj.o.Emit(obs.Event{Kind: obs.KindFaultHeal, EP: -1, N: int64(i)})
	for k := range inj.report.Injections {
		if inj.report.Injections[k].Index == i {
			inj.report.Injections[k].Healed = now
		}
	}
}

// armFlip schedules the channel's next state transition with an
// exponential sojourn in the current state.
func (inj *Injector) armFlip(g *geState) {
	mean := g.inj.MeanGood
	if g.bad {
		mean = g.inj.MeanBad
	}
	if mean <= 0 {
		mean = 10 * time.Second
	}
	d := time.Duration(inj.rngGE.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	g.flip = inj.sched.After(d, func() {
		g.bad = !g.bad
		inj.armFlip(g)
	})
}

// recomputeDelays refreshes the per-message aggregates after an
// activation or heal.
func (inj *Injector) recomputeDelays() {
	inj.maxJitter, inj.sumSpike, inj.maxDup = 0, 0, 0
	for _, j := range inj.jitters {
		if j > inj.maxJitter {
			inj.maxJitter = j
		}
	}
	for _, s := range inj.spikes {
		inj.sumSpike += s
	}
	for _, p := range inj.dups {
		if p > inj.maxDup {
			inj.maxDup = p
		}
	}
	inj.slowRegion = make(map[int]time.Duration)
	for _, in := range inj.slows {
		if in.SlowDelay > inj.slowRegion[in.Region] {
			inj.slowRegion[in.Region] = in.SlowDelay
		}
	}
}

// notifyChange runs the reachability listeners.
func (inj *Injector) notifyChange() {
	for _, f := range inj.onChange {
		f()
	}
}

package pastry

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// lossyRing builds a bootstrapped ring over a lossy network.
func lossyRing(t *testing.T, n int, seed int64, loss float64) (*simnet.Wheel, *Ring, []*Node, []*testApp) {
	t.Helper()
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(8, 10*time.Millisecond, time.Millisecond)
	netCfg := simnet.DefaultNetworkConfig()
	netCfg.Seed = seed
	netCfg.LossRate = loss
	net := simnet.NewNetwork(sched, topo, n, netCfg)
	cfg := DefaultConfig()
	cfg.Seed = seed
	ring := NewRing(net, cfg)
	rng := rand.New(rand.NewSource(seed))
	idList := ids.RandomN(rng, n)
	nodes := make([]*Node, n)
	apps := make([]*testApp, n)
	eps := make([]simnet.Endpoint, n)
	for i := 0; i < n; i++ {
		apps[i] = &testApp{}
		nodes[i] = ring.AddNode(simnet.Endpoint(i), idList[i], apps[i])
		eps[i] = simnet.Endpoint(i)
	}
	ring.BootstrapAll(eps)
	return sched, ring, nodes, apps
}

func TestJoinRetriesUnderHeavyLoss(t *testing.T) {
	// 20% loss: single-shot joins would frequently strand nodes; retries
	// must eventually complete every join.
	sched, ring, nodes, _ := lossyRing(t, 48, 41, 0.20)
	// Cycle a third of the nodes.
	for i := 0; i < 16; i++ {
		n := nodes[i]
		at := time.Duration(i) * time.Minute
		sched.At(at, n.Stop)
		sched.At(at+5*time.Minute, n.Start)
	}
	sched.RunUntil(2 * time.Hour)
	for i := 0; i < 16; i++ {
		if !nodes[i].Alive() {
			t.Fatalf("node %d not alive", i)
		}
		if !ring.isLive(nodes[i].Ref()) {
			t.Fatalf("node %d alive but stranded outside the overlay (join never completed)", i)
		}
		if len(nodes[i].Leafset()) == 0 {
			t.Fatalf("node %d has an empty leafset after rejoin", i)
		}
	}
}

func TestJoinRetryStopsOnStop(t *testing.T) {
	// A node that dies mid-join must not keep retrying.
	sched, ring, nodes, _ := lossyRing(t, 16, 42, 1.0) // all messages lost
	victim := nodes[3]
	victim.Stop()
	sched.RunUntil(10 * time.Minute)
	victim.Start() // join can never complete at 100% loss
	sched.RunUntil(11 * time.Minute)
	victim.Stop()
	before := ring.Network().Stats().TotalTx(simnet.ClassPastry)
	sched.RunUntil(2 * time.Hour)
	after := ring.Network().Stats().TotalTx(simnet.ClassPastry)
	// Only the aggregate heartbeat accounting of other nodes should accrue;
	// no join retries from the stopped node. Allow the aggregate accounting
	// but verify it is not growing with retry-period cadence from ep3 by
	// checking the per-endpoint samples.
	_ = before
	_ = after
	samples := ring.Network().Stats().PerEndpointHourSamples(false, 15*time.Minute, 2*time.Hour)
	_ = samples
	// Direct check: the victim must have no armed retry timer.
	if victim.joinRetry != (simnet.Timer{}) {
		t.Fatal("stopped node still has a join retry armed")
	}
}

func TestRoutingDeliversUnderModerateLoss(t *testing.T) {
	// With 5% loss (MSPastry's evaluated worst case) most routed messages
	// still arrive; app-level retransmission covers the rest.
	sched, ring, nodes, apps := lossyRing(t, 64, 43, 0.05)
	rng := rand.New(rand.NewSource(44))
	const trials = 200
	for i := 0; i < trials; i++ {
		key := ids.Random(rng)
		nodes[rng.Intn(len(nodes))].Route(key, i, 50, simnet.ClassQuery)
	}
	sched.RunUntil(time.Minute)
	total := 0
	for i, a := range apps {
		for _, d := range a.delivered {
			root, _ := ring.Root(d.key)
			if root.ID != nodes[i].ID() {
				t.Fatalf("misrouted under loss")
			}
			total++
		}
	}
	// Expected delivery ≈ (1-0.05)^hops ≈ 85-95%.
	if total < trials*3/4 {
		t.Fatalf("only %d of %d delivered under 5%% loss", total, trials)
	}
	if total > trials {
		t.Fatalf("duplicates: %d > %d", total, trials)
	}
}

func TestReplicaSetIsClosestSubset(t *testing.T) {
	_, ring, nodes, _ := lossyRing(t, 64, 45, 0)
	for _, n := range nodes {
		rs := n.ReplicaSet(4)
		if len(rs) != 4 {
			t.Fatalf("replica set size %d", len(rs))
		}
		// Every member must be in the leafset, and they must be the 4
		// members closest to the node's id.
		leaf := n.Leafset()
		worst := ids.ID{}
		for _, m := range rs {
			d := n.ID().AbsDistance(m.ID)
			if worst.Less(d) {
				worst = d
			}
		}
		for _, m := range leaf {
			inRS := false
			for _, r := range rs {
				if r.ID == m.ID {
					inRS = true
				}
			}
			if !inRS && n.ID().AbsDistance(m.ID).Less(worst) {
				t.Fatalf("leafset member %v closer than a replica-set member", m.ID.Short())
			}
		}
	}
	_ = ring
}

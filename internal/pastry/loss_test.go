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
		if len(nodes[i].LeafsetView()) == 0 {
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
	sched.RunUntil(2 * time.Hour)
	// The stopped node sends nothing: its transmit samples over the hour
	// from 1 h to 2 h (one sample per endpoint) are all zero. A retry at
	// joinSchedule's cadence would send hundreds of join requests.
	samples := ring.Network().Stats().PerEndpointHourSamples(false, time.Hour, 2*time.Hour)
	if len(samples) != len(nodes) {
		t.Fatalf("%d samples over one hour, want one per endpoint (%d)", len(samples), len(nodes))
	}
	if tx := samples[victim.ep]; tx != 0 {
		t.Fatalf("stopped node sent %.2f bytes/s from 1 h to 2 h", tx)
	}
	// The live nodes' heartbeats are accounted in the same hour, so the
	// zero is the victim's silence and not an empty bucket.
	if samples[nodes[0].ep] == 0 {
		t.Fatal("a live node sent nothing from 1 h to 2 h: the samples account nothing")
	}
	if _, armed := victim.joinRetry.When(); armed {
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
	_, _, nodes, _ := lossyRing(t, 64, 45, 0)
	for _, n := range nodes {
		rs := n.AppendClosest(nil, n.ID(), 4, false)
		if len(rs) != 4 {
			t.Fatalf("replica set size %d", len(rs))
		}
		// Every member must be in the leafset, and they must be the 4
		// members closest to the node's id.
		leaf := n.LeafsetView()
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
}

package pastry

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// testApp records deliveries for assertions.
type testApp struct {
	delivered []struct {
		key     ids.ID
		payload any
	}
	leafsetChanges int
}

func (a *testApp) Deliver(key ids.ID, from simnet.Endpoint, payload any) {
	a.delivered = append(a.delivered, struct {
		key     ids.ID
		payload any
	}{key, payload})
}

func (a *testApp) LeafsetChanged() { a.leafsetChanges++ }

// testRing builds a bootstrapped ring of n nodes.
func testRing(t *testing.T, n int, seed int64) (*simnet.Wheel, *Ring, []*Node, []*testApp) {
	t.Helper()
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(8, 10*time.Millisecond, time.Millisecond)
	netCfg := simnet.DefaultNetworkConfig()
	netCfg.Seed = seed
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

func TestBootstrapLeafsets(t *testing.T) {
	_, ring, nodes, _ := testRing(t, 64, 1)
	for _, n := range nodes {
		ls := n.LeafsetView()
		if len(ls) != 2*leafsetHalf {
			t.Fatalf("node %v leafset size %d, want %d", n.ID().Short(), len(ls), 2*leafsetHalf)
		}
		// Every leafset member must be live, and the replica set must be
		// exactly the ground-truth closest set.
		for _, m := range ls {
			if !ring.isLive(m) {
				t.Fatalf("leafset contains dead node")
			}
		}
		self := n.Ref()
		want := ring.LiveClosest(n.ID(), 4, &self)
		got := n.AppendClosest(nil, n.ID(), 4, false)
		wantSet := map[ids.ID]bool{}
		for _, w := range want {
			wantSet[w.ID] = true
		}
		for _, g := range got {
			if !wantSet[g.ID] {
				t.Fatalf("replica set member %v not in ground-truth closest", g.ID.Short())
			}
		}
	}
}

func TestRoutingReachesTrueRoot(t *testing.T) {
	sched, ring, nodes, apps := testRing(t, 128, 2)
	rng := rand.New(rand.NewSource(99))
	const trials = 200
	for i := 0; i < trials; i++ {
		key := ids.Random(rng)
		src := nodes[rng.Intn(len(nodes))]
		src.Route(key, i, 100, simnet.ClassQuery)
	}
	sched.RunUntil(time.Minute)
	total := 0
	for i, a := range apps {
		for _, d := range a.delivered {
			root, _ := ring.Root(d.key)
			if root.ID != nodes[i].ID() {
				t.Fatalf("key %v delivered to %v, true root %v",
					d.key.Short(), nodes[i].ID().Short(), root.ID.Short())
			}
			total++
		}
	}
	if total != trials {
		t.Fatalf("delivered %d of %d messages", total, trials)
	}
}

func TestRoutingTerminatesAndLatencyBounded(t *testing.T) {
	// 256 nodes: expected route length is ~log16(256)=2 prefix hops plus a
	// couple of fallback steps. With a uniform 10ms-RTT topology, delivery
	// latency bounds the hop count; assert it stays under 10 hops' worth.
	sched, _, nodes, apps := testRing(t, 256, 3)
	rng := rand.New(rand.NewSource(5))
	const trials = 50
	sendAt := sched.Now()
	for i := 0; i < trials; i++ {
		key := ids.Random(rng)
		src := nodes[rng.Intn(len(nodes))]
		src.Route(key, i, 50, simnet.ClassQuery)
	}
	// One hop costs 7ms (2 LAN + RTT/2); allow 10 hops' worth of time.
	sched.RunUntil(sendAt + 10*7*time.Millisecond)
	total := 0
	for _, a := range apps {
		total += len(a.delivered)
	}
	if total != trials {
		t.Fatalf("delivered %d of %d within a 10-hop latency budget", total, trials)
	}
}

func TestJoinAndRouteToJoiner(t *testing.T) {
	n := 65
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(8, 10*time.Millisecond, time.Millisecond)
	netCfg := simnet.DefaultNetworkConfig()
	net := simnet.NewNetwork(sched, topo, n, netCfg)
	cfg := DefaultConfig()
	ring := NewRing(net, cfg)
	rng := rand.New(rand.NewSource(6))
	idList := ids.RandomN(rng, n)
	nodes := make([]*Node, n)
	apps := make([]*testApp, n)
	var eps []simnet.Endpoint
	for i := 0; i < n; i++ {
		apps[i] = &testApp{}
		nodes[i] = ring.AddNode(simnet.Endpoint(i), idList[i], apps[i])
		if i < n-1 {
			eps = append(eps, simnet.Endpoint(i))
		}
	}
	ring.BootstrapAll(eps)

	joiner := nodes[n-1]
	ready := false
	joiner.OnReady = func() { ready = true }
	sched.After(time.Second, func() { joiner.Start() })
	sched.RunUntil(time.Minute)
	if !ready {
		t.Fatal("joiner never became ready")
	}
	if !ring.isLive(joiner.Ref()) {
		t.Fatal("joiner not in ground truth")
	}

	// Route to the joiner's own id from every node: all must deliver to
	// the joiner.
	for i := 0; i < n-1; i++ {
		nodes[i].Route(joiner.ID(), "hello", 10, simnet.ClassQuery)
	}
	sched.RunUntil(10 * time.Minute)
	if len(apps[n-1].delivered) != n-1 {
		t.Fatalf("joiner received %d of %d messages", len(apps[n-1].delivered), n-1)
	}
}

func TestStopRepairsLeafsetsAndRerootsKeys(t *testing.T) {
	sched, ring, nodes, _ := testRing(t, 64, 7)
	victim := nodes[10]
	vid := victim.ID()

	// A key owned by the victim.
	key := vid // route directly to its id
	sched.After(time.Second, func() { victim.Stop() })
	// After detection (<= 2 heartbeat periods) plus slack, leafsets must
	// not contain the victim, and routing to its id must deliver to the
	// new true root.
	sched.RunUntil(5 * time.Minute)

	for _, n := range nodes {
		if !n.Alive() {
			continue
		}
		for _, m := range n.LeafsetView() {
			if m.ID == vid {
				t.Fatalf("node %v still has dead node in leafset", n.ID().Short())
			}
		}
	}

	newRoot, ok := ring.Root(key)
	if !ok || newRoot.ID == vid {
		t.Fatal("ground truth still maps key to dead node")
	}
	rootNode := ring.Node(newRoot.EP)
	before := len(appOf(t, rootNode).delivered)
	nodes[20].Route(key, "after-death", 10, simnet.ClassQuery)
	sched.RunUntil(sched.Now() + time.Minute)
	if len(appOf(t, rootNode).delivered) != before+1 {
		t.Fatal("message for dead node's key not delivered to new root")
	}
}

// appOf extracts the testApp behind a node.
func appOf(t *testing.T, n *Node) *testApp {
	t.Helper()
	a, ok := n.app.(*testApp)
	if !ok {
		t.Fatal("node app is not a testApp")
	}
	return a
}

func TestLeafsetChangedFires(t *testing.T) {
	sched, _, nodes, _ := testRing(t, 32, 8)
	victim := nodes[5]
	self := victim.Ref()
	neighbors := victim.ring.LiveClosest(victim.ID(), 4, &self)
	sched.After(time.Second, func() { victim.Stop() })
	sched.RunUntil(5 * time.Minute)
	for _, nb := range neighbors {
		node := victim.ring.Node(nb.EP)
		if appOf(t, node).leafsetChanges == 0 {
			t.Fatalf("neighbor %v never saw a leafset change", nb.ID.Short())
		}
	}
}

func TestChurnStorm(t *testing.T) {
	// Many deaths and rejoins; the overlay must stay consistent and all
	// routing must still reach true roots afterward.
	sched, ring, nodes, apps := testRing(t, 96, 9)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		n := nodes[rng.Intn(len(nodes))]
		at := time.Duration(rng.Int63n(int64(10 * time.Minute)))
		sched.At(at, func() {
			if n.Alive() {
				n.Stop()
			} else {
				n.Start()
			}
		})
	}
	sched.RunUntil(30 * time.Minute)

	live := ring.NumLive()
	if live == 0 {
		t.Fatal("everything died")
	}
	// Clear delivery logs, then route fresh messages.
	for _, a := range apps {
		a.delivered = nil
	}
	var alive []*Node
	for _, n := range nodes {
		if n.Alive() {
			alive = append(alive, n)
		}
	}
	const trials = 100
	for i := 0; i < trials; i++ {
		key := ids.Random(rng)
		alive[rng.Intn(len(alive))].Route(key, i, 10, simnet.ClassQuery)
	}
	sched.RunUntil(sched.Now() + 10*time.Minute)
	total := 0
	misrouted := 0
	for i, a := range apps {
		for _, d := range a.delivered {
			root, _ := ring.Root(d.key)
			if root.ID != nodes[i].ID() {
				misrouted++
			}
			total++
		}
	}
	if total < trials*95/100 {
		t.Fatalf("delivered only %d of %d after churn", total, trials)
	}
	if misrouted > trials/50 {
		t.Fatalf("%d of %d misrouted after churn", misrouted, total)
	}
}

func TestPastryBandwidthAccounted(t *testing.T) {
	sched, ring, nodes, _ := testRing(t, 32, 10)
	nodes[3].Stop()
	sched.RunUntil(time.Hour)
	st := ring.Network().Stats()
	if st.TotalTx(simnet.ClassPastry) == 0 {
		t.Fatal("no pastry-class bandwidth accounted")
	}
	// Heartbeat aggregate accounting: each live node should be charged
	// roughly 2*lh*hbBytes/period B/s; over an hour that's visible.
	perNodePerSec := st.TotalTx(simnet.ClassPastry) / float64(ring.NumLive()) / 3600
	if perNodePerSec < 1 || perNodePerSec > 100 {
		t.Fatalf("pastry overhead %.2f B/s per node implausible", perNodePerSec)
	}
}

func TestRouteFromDeadNodeIsNoop(t *testing.T) {
	sched, _, nodes, apps := testRing(t, 16, 12)
	nodes[0].Stop()
	nodes[0].Route(ids.Random(rand.New(rand.NewSource(1))), "x", 10, simnet.ClassQuery)
	sched.RunUntil(time.Minute)
	for _, a := range apps {
		for _, d := range a.delivered {
			if d.payload == "x" {
				t.Fatal("dead node's message was delivered")
			}
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(2, 10*time.Millisecond, time.Millisecond)
	net := simnet.NewNetwork(sched, topo, 1, simnet.DefaultNetworkConfig())
	ring := NewRing(net, DefaultConfig())
	app := &testApp{}
	n := ring.AddNode(0, ids.MustParse("0123456789abcdef0123456789abcdef"), app)
	n.Start() // empty overlay: immediate
	if !n.Alive() || ring.NumLive() != 1 {
		t.Fatal("single node failed to start")
	}
	n.Route(ids.MustParse("ffffffffffffffffffffffffffffffff"), "self", 10, simnet.ClassQuery)
	sched.RunUntil(time.Minute)
	if len(app.delivered) != 1 {
		t.Fatal("single node must deliver everything to itself")
	}
}

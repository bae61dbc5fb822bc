package metadata

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// harness wires a pastry ring where every node runs a metadata service.
type harness struct {
	sched    *simnet.Wheel
	obs      *obs.Obs
	ring     *pastry.Ring
	nodes    []*pastry.Node
	services []*Service
	apps     []*svcApp
}

type svcApp struct {
	svc **Service
	// drop, when set, discards the payloads it reports before the service
	// sees them.
	drop func(payload any) bool
}

func (a *svcApp) Deliver(key ids.ID, from simnet.Endpoint, payload any) {
	if a.drop != nil && a.drop(payload) {
		return
	}
	(*a.svc).HandleMessage(payload)
}

func (a *svcApp) LeafsetChanged() {
	if *a.svc != nil {
		(*a.svc).HandleLeafsetChanged()
	}
}

// direct messages (not KBR-routed) also arrive via HandleMessage on the
// node, which forwards unknown payloads to Deliver? No: pastry.Node only
// understands its own message types. Metadata pushes are sent as raw
// payloads to endpoints, so the node must hand them to the application.

func newHarness(t *testing.T, n int, seed int64) *harness {
	t.Helper()
	h := &harness{sched: simnet.NewWheel(), obs: obs.New()}
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	cfg := simnet.DefaultNetworkConfig()
	cfg.Seed = seed
	net := simnet.NewNetwork(h.sched, topo, n, cfg)
	net.SetObs(h.obs)
	pcfg := pastry.DefaultConfig()
	pcfg.Seed = seed
	h.ring = pastry.NewRing(net, pcfg)
	rng := rand.New(rand.NewSource(seed))
	idList := ids.RandomN(rng, n)
	h.nodes = make([]*pastry.Node, n)
	h.services = make([]*Service, n)
	h.apps = make([]*svcApp, n)
	eps := make([]simnet.Endpoint, n)
	for i := 0; i < n; i++ {
		h.apps[i] = &svcApp{svc: &h.services[i]}
		h.nodes[i] = h.ring.AddNode(simnet.Endpoint(i), idList[i], h.apps[i])
		h.services[i] = NewService(h.nodes[i], DefaultConfig(), seed+int64(i))
		h.services[i].SetLocalMetadata(testSummary(t, i), testModel(i))
		eps[i] = simnet.Endpoint(i)
	}
	h.ring.BootstrapAll(eps)
	for i := range h.services {
		h.services[i].Activate()
	}
	return h
}

func testSummary(t *testing.T, i int) *relq.Summary {
	t.Helper()
	tbl := relq.NewTable(relq.Schema{
		Name:    "Flow",
		Columns: []relq.Column{{Name: "Bytes", Type: relq.TInt, Indexed: true}},
	})
	for r := 0; r < 10+i; r++ {
		tbl.Insert(int64(r * 100))
	}
	return relq.NewSummary(tbl)
}

func testModel(i int) *avail.Model {
	m := &avail.Model{}
	for d := 0; d < 10; d++ {
		m.ObserveUpEvent(time.Duration(d)*avail.Day+8*time.Hour, 14*time.Hour)
	}
	return m
}

func TestInitialPushReachesReplicaSet(t *testing.T) {
	h := newHarness(t, 48, 1)
	h.sched.RunUntil(time.Minute)
	k := K
	for i, n := range h.nodes {
		replicas := n.ReplicaSet(k)
		for _, rep := range replicas {
			svc := h.services[rep.EP]
			rec := svc.Lookup(n.ID())
			if rec == nil {
				t.Fatalf("replica %v lacks metadata of %v", rep.ID.Short(), n.ID().Short())
			}
			if !rec.Up {
				t.Fatalf("record for live node %d marked down", i)
			}
			if rec.Summary == nil || rec.Model == nil {
				t.Fatal("record missing summary or model")
			}
		}
	}
}

func TestDownMarkingAfterDeath(t *testing.T) {
	h := newHarness(t, 48, 2)
	h.sched.RunUntil(time.Minute)
	victim := h.nodes[7]
	vid := victim.ID()
	replicas := victim.ReplicaSet(K)
	dieAt := h.sched.Now() + time.Second
	h.sched.At(dieAt, func() {
		h.services[7].Deactivate()
		victim.Stop()
	})
	h.sched.RunUntil(dieAt + 10*time.Minute)
	found := 0
	for _, rep := range replicas {
		if !h.nodes[rep.EP].Alive() {
			continue
		}
		rec := h.services[rep.EP].Lookup(vid)
		if rec == nil {
			continue
		}
		found++
		if rec.Up {
			t.Fatalf("replica %v still thinks %v is up", rep.ID.Short(), vid.Short())
		}
		if rec.DownSince < dieAt || rec.DownSince > dieAt+3*time.Minute {
			t.Fatalf("DownSince %v not near death time %v", rec.DownSince, dieAt)
		}
	}
	if found == 0 {
		t.Fatal("no replica retained the dead node's metadata")
	}
}

func TestMetadataSurvivesHolderChurn(t *testing.T) {
	// Kill a subject, then kill several of its original replicas; the
	// record must still be found at the current closest nodes.
	h := newHarness(t, 64, 3)
	h.sched.RunUntil(time.Minute)
	victim := h.nodes[11]
	vid := victim.ID()
	h.sched.At(h.sched.Now()+time.Second, func() {
		h.services[11].Deactivate()
		victim.Stop()
	})
	h.sched.RunUntil(h.sched.Now() + 5*time.Minute)

	// Kill 3 of the victim's closest live nodes, one per 5 minutes.
	for round := 0; round < 3; round++ {
		closest := h.ring.LiveClosest(vid, 1, nil)
		if len(closest) == 0 {
			t.Fatal("no live nodes left")
		}
		ep := closest[0].EP
		h.sched.At(h.sched.Now()+time.Second, func() {
			h.services[ep].Deactivate()
			h.ring.Node(ep).Stop()
		})
		h.sched.RunUntil(h.sched.Now() + 5*time.Minute)
	}

	// The record must now exist on at least one of the current k closest.
	holders := 0
	for _, ref := range h.ring.LiveClosest(vid, K, nil) {
		if rec := h.services[ref.EP].Lookup(vid); rec != nil && !rec.Up {
			holders++
		}
	}
	if holders == 0 {
		t.Fatal("metadata lost after holder churn")
	}
}

func TestRejoinMarksUpAgain(t *testing.T) {
	h := newHarness(t, 48, 4)
	h.sched.RunUntil(time.Minute)
	victim := h.nodes[5]
	vid := victim.ID()
	h.sched.At(h.sched.Now()+time.Second, func() {
		h.services[5].Deactivate()
		victim.Stop()
	})
	h.sched.RunUntil(h.sched.Now() + 5*time.Minute)
	h.sched.At(h.sched.Now()+time.Second, func() {
		victim.OnReady = func() { h.services[5].Activate() }
		victim.Start()
	})
	h.sched.RunUntil(h.sched.Now() + 5*time.Minute)

	k := K
	upSeen := 0
	for _, ref := range h.ring.LiveClosest(vid, k, nil) {
		if ref.ID == vid {
			continue
		}
		if rec := h.services[ref.EP].Lookup(vid); rec != nil && rec.Up {
			upSeen++
		}
	}
	if upSeen == 0 {
		t.Fatal("no replica saw the rejoin push")
	}
}

func TestRejoinPushIsFull(t *testing.T) {
	// A rejoining endsystem assumes nothing about what its replicas still
	// hold: its first round is full records, even with nothing changed,
	// so replicas that dropped its record meanwhile need not pull.
	h := newHarness(t, 48, 4)
	h.sched.RunUntil(time.Minute)
	const v = 5
	victim := h.nodes[v]
	h.services[v].Deactivate()
	victim.Stop()
	h.sched.RunUntil(h.sched.Now() + 5*time.Minute)
	for _, svc := range h.services {
		delete(svc.store, victim.ID())
	}
	victim.OnReady = h.services[v].Activate
	victim.Start()
	h.sched.RunUntil(h.sched.Now() + time.Minute)
	if p := h.obs.Counter("meta_pulls").Value(); p != 0 {
		t.Fatalf("%d pulls after the rejoin", p)
	}
	for _, rep := range victim.ReplicaSet(K) {
		if rec := h.services[rep.EP].Lookup(victim.ID()); rec == nil || !rec.Up {
			t.Fatalf("replica %v lacks the rejoined record", rep.ID.Short())
		}
	}
}

func TestUnavailableInRange(t *testing.T) {
	h := newHarness(t, 48, 5)
	h.sched.RunUntil(time.Minute)
	victim := h.nodes[9]
	vid := victim.ID()
	h.sched.At(h.sched.Now()+time.Second, func() {
		h.services[9].Deactivate()
		victim.Stop()
	})
	h.sched.RunUntil(h.sched.Now() + 5*time.Minute)

	root, _ := h.ring.Root(vid)
	recs := h.services[root.EP].UnavailableInRange(vid, vid)
	if len(recs) != 1 || recs[0].Subject != vid {
		t.Fatalf("UnavailableInRange at root found %d records", len(recs))
	}
	// A range excluding the victim must not return it.
	lo := vid.AddUint64(1)
	recs = h.services[root.EP].UnavailableInRange(lo, lo.AddUint64(10))
	for _, r := range recs {
		if r.Subject == vid {
			t.Fatal("range query returned subject outside range")
		}
	}
}

func TestPeriodicPushTraffic(t *testing.T) {
	// Nothing changes after the activation round, so every later round is
	// K beacons per node: about K·32 B per PushPeriod per node.
	const n = 32
	h := newHarness(t, n, 6)
	h.sched.RunUntil(time.Minute)
	st := h.ring.Network().Stats()
	first := st.TotalTx(simnet.ClassMaintenance)
	if first < n*K*float64(recordWireSize(testSummary(t, 0))) {
		t.Fatalf("activation round sent %.0f B, less than a full record per member", first)
	}
	beacons0 := h.obs.Counter("meta_beacons").Value()
	const window = 2 * time.Hour
	h.sched.RunUntil(time.Minute + window)
	bytes := st.TotalTx(simnet.ClassMaintenance) - first
	beacons := h.obs.Counter("meta_beacons").Value() - beacons0
	if bytes != float64(beacons*recordHeaderBytes) {
		t.Fatalf("%.0f maintenance bytes in the window, want %d beacons x %d B", bytes, beacons, recordHeaderBytes)
	}
	if p := h.obs.Counter("meta_pulls").Value(); p != 0 {
		t.Fatalf("%d pulls at zero loss", p)
	}
	rounds := float64(window) / float64(DefaultConfig().PushPeriod)
	want := K * recordHeaderBytes * rounds
	perNode := bytes / n
	t.Logf("%.0f B per node over %v (%.2f B/s); K·32 B per round predicts %.0f", perNode, window,
		perNode/window.Seconds(), want)
	// Each node fits 6 or 7 rounds into the window (6.86 on average).
	if perNode < 0.85*want || perNode > 1.15*want {
		t.Fatalf("%.0f B per node, want about %.0f", perNode, want)
	}
}

func TestVersioningNewestWins(t *testing.T) {
	h := newHarness(t, 16, 7)
	// Past every node's first periodic round, so versions are non-zero.
	h.sched.RunUntil(DefaultConfig().PushPeriod + time.Minute)
	subject := h.nodes[1]
	rep := subject.AppendReplicaSet(nil, K)[0]
	svc := h.services[rep.EP]
	cur := svc.Lookup(subject.ID())
	if cur == nil || cur.Version == 0 {
		t.Fatalf("replica %v holds no pushed record of its subject", rep.ID.Short())
	}
	want := *cur
	svc.insert(&Record{Subject: subject.ID(), Version: cur.Version - 1, Gen: cur.Gen + 1})
	svc.insert(&Record{Subject: subject.ID(), Version: cur.Version, Gen: cur.Gen - 1})
	// A stale beacon of another generation neither applies nor pulls.
	svc.refresh(&Record{Subject: subject.ID(), Version: cur.Version - 1, Gen: cur.Gen + 1},
		subject.Endpoint())
	if got := svc.Lookup(subject.ID()); *got != want {
		t.Fatalf("an older record overwrote the newer one: %+v, want %+v", *got, want)
	}
	if p := h.obs.Counter("meta_pulls").Value(); p != 0 {
		t.Fatalf("a stale beacon pulled (%d)", p)
	}
	// The same push instant with a later generation wins.
	svc.insert(&Record{Subject: subject.ID(), Version: cur.Version, Gen: want.Gen + 1, Up: true})
	if got := svc.Lookup(subject.ID()); got.Gen != want.Gen+1 {
		t.Fatalf("generation %d, want the later %d", got.Gen, want.Gen+1)
	}
}

func TestBeaconLeavesFullPushState(t *testing.T) {
	// Every member's copy of every subject must read what a full push each
	// round would have left: the subject's current record field for field.
	h := newHarness(t, 32, 8)
	// A quarter of the subjects change mid-run, so their later rounds are
	// one full push followed by beacons of generation 2.
	h.sched.At(30*time.Minute, func() {
		for i := 0; i < len(h.services); i += 4 {
			h.services[i].SetLocalMetadata(testSummary(t, 100+i), testModel(i))
		}
	})
	// Every copy is marked down, as a member does when its subject leaves
	// its leafset for a moment; the next beacon must mark it up again.
	h.sched.At(time.Hour, func() {
		for _, svc := range h.services {
			for _, rec := range svc.store {
				rec.Up, rec.DownSince = false, h.sched.Now()
			}
		}
	})
	h.sched.RunUntil(2 * time.Hour)
	// Stop the rounds and let the last ones land.
	for _, svc := range h.services {
		svc.Deactivate()
	}
	h.sched.RunUntil(h.sched.Now() + time.Minute)
	if h.obs.Counter("meta_beacons").Value() == 0 {
		t.Fatal("no round sent a beacon")
	}
	if p := h.obs.Counter("meta_pulls").Value(); p != 0 {
		t.Fatalf("%d pulls at zero loss", p)
	}
	for i, n := range h.nodes {
		own := h.services[i].own
		for _, rep := range n.ReplicaSet(K) {
			rec := h.services[rep.EP].Lookup(n.ID())
			if rec == nil {
				t.Fatalf("replica %v lacks subject %d", rep.ID.Short(), i)
			}
			if rec.Gen != own.Gen || rec.Version != own.Version || rec.Up != own.Up ||
				rec.DownSince != own.DownSince || rec.Summary != own.Summary || rec.Model != own.Model {
				t.Fatalf("replica %v holds subject %d as gen %d version %v up %v down %v, want gen %d version %v up %v down %v",
					rep.ID.Short(), i, rec.Gen, rec.Version, rec.Up, rec.DownSince,
					own.Gen, own.Version, own.Up, own.DownSince)
			}
		}
	}
}

// dropOnce loses the next maintenance message from one endpoint to another.
type dropOnce struct {
	from, to simnet.Endpoint
	dropped  bool
}

func (d *dropOnce) OnSend(from, to simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	if !d.dropped && from == d.from && to == d.to && class == simnet.ClassMaintenance {
		d.dropped = true
		return simnet.Fate{Drop: true}
	}
	return simnet.Fate{}
}

func TestLostPushRepairedByPull(t *testing.T) {
	for _, answered := range []bool{true, false} {
		h := newHarness(t, 32, 9)
		h.sched.RunUntil(time.Minute)
		const subj = 3
		svc := h.services[subj]
		member := h.nodes[subj].ReplicaSet(K)[0]
		if !answered {
			// The subject never sees a pull: nothing else can repair the
			// member, so it must stay stale.
			h.apps[subj].drop = func(p any) bool { _, ok := p.(*pullMsg); return ok }
		}
		hook := &dropOnce{from: simnet.Endpoint(subj), to: member.EP}
		h.ring.Network().SetFaultHook(hook)
		svc.SetLocalMetadata(testSummary(t, 100), testModel(subj))
		svc.pushOwn() // the change round; its push to member is lost
		lostAt := h.sched.Now()
		h.sched.RunUntil(lostAt + time.Second)
		stale := func() bool { return h.services[member.EP].Lookup(h.nodes[subj].ID()).Gen != svc.own.Gen }
		if !hook.dropped || !stale() {
			t.Fatal("the change push was not lost")
		}
		// The next round is at most one PushPeriod away; its beacon, the
		// pull and the answer take a round trip and a half.
		h.sched.RunUntil(lostAt + DefaultConfig().PushPeriod + time.Second)
		pulls := h.obs.Counter("meta_pulls").Value()
		if pulls == 0 {
			t.Fatalf("answered=%v: the member never pulled", answered)
		}
		if answered && stale() {
			t.Fatalf("the member is still stale one PushPeriod after the loss (%d pulls)", pulls)
		}
		if !answered && !stale() {
			t.Fatal("the member converged with pulls unanswered")
		}
		if answered {
			rec := h.services[member.EP].Lookup(h.nodes[subj].ID())
			if rec.Summary != svc.own.Summary || !rec.Up {
				t.Fatalf("the pulled copy is not the subject's record: %+v", *rec)
			}
		}
	}
}

func TestRereplicationSendsSnapshot(t *testing.T) {
	// A re-replication forward carries the record as it was when sent,
	// not as the sender's copy reads at delivery: the sender marks its
	// stored record down and overwrites it in place.
	h := newHarness(t, 32, 10)
	h.sched.RunUntil(time.Minute)
	const holder = 5
	svc := h.services[holder]
	var rec *Record
	var to pastry.NodeRef
	for _, r := range svc.sortedRecords() {
		for _, m := range svc.localReplicaSet(r.Subject, K) {
			if m.ID != r.Subject && m.ID != h.nodes[holder].ID() && h.services[m.EP].Lookup(r.Subject) != nil {
				rec, to = r, m
				break
			}
		}
		if rec != nil {
			break
		}
	}
	if rec == nil || !rec.Up {
		t.Fatal("no up record with another member to forward it to")
	}
	// Make the member look newly arrived, so the holder forwards to it.
	delete(svc.prevLeaf, to.ID)
	rerepl := h.obs.Counter("meta_rereplications").Value()
	svc.HandleLeafsetChanged()
	if h.obs.Counter("meta_rereplications").Value() == rerepl {
		t.Fatal("no re-replication forward")
	}
	// While the forward is in flight the holder sees the subject leave.
	rec.Up, rec.DownSince = false, h.sched.Now()
	h.sched.RunUntil(h.sched.Now() + time.Second)
	if got := h.services[to.EP].Lookup(rec.Subject); !got.Up || got.DownSince != 0 {
		t.Fatalf("the member read the holder's later copy: up %v down since %v", got.Up, got.DownSince)
	}
}

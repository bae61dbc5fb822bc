package pastry

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// staleRig is a bootstrapped 64-node ring plus one endpoint with no node,
// which records who answers a join sent on its behalf, and one node, src,
// whose routing-table entry stale names a node that has died without src
// hearing of it.
type staleRig struct {
	sched     *simnet.Wheel
	net       *simnet.Network
	ring      *Ring
	apps      []*testApp
	src       *Node
	stale     NodeRef
	joinerEP  simnet.Endpoint
	repliedBy []simnet.Endpoint
}

func newStaleRig(t *testing.T) *staleRig {
	t.Helper()
	const n = 64
	r := &staleRig{sched: simnet.NewWheel(), joinerEP: n}
	topo := simnet.UniformTopology(8, 10*time.Millisecond, time.Millisecond)
	r.net = simnet.NewNetwork(r.sched, topo, n+1, simnet.DefaultNetworkConfig())
	r.ring = NewRing(r.net, DefaultConfig())
	idList := ids.RandomN(rand.New(rand.NewSource(11)), n)
	eps := make([]simnet.Endpoint, n)
	for i := range eps {
		r.apps = append(r.apps, &testApp{})
		r.ring.AddNode(simnet.Endpoint(i), idList[i], r.apps[i])
		eps[i] = simnet.Endpoint(i)
	}
	r.ring.BootstrapAll(eps)
	r.net.Bind(r.joinerEP, simnet.HandlerFunc(func(from simnet.Endpoint, payload any) {
		if _, ok := payload.(*joinReply); ok {
			r.repliedBy = append(r.repliedBy, from)
		}
	}))
	// An entry outside src's leafset span, whose node does not count src
	// among its leafset neighbours: no failure notice reaches src when it
	// stops.
	r.src = r.ring.Node(0)
	for _, row := range r.src.rows {
		for _, e := range row {
			if e.ok && !r.src.inLeafsetSpan(e.ID) &&
				!hasID(r.ring.liveLeafNeighbors(nil, e.EP, e.ID), r.src.id) {
				r.stale = e.NodeRef
				r.ring.Node(e.EP).Stop()
				return r
			}
		}
	}
	t.Fatal("src has no routing-table entry outside its leafset's reach")
	return nil
}

// holds reports whether src's routing table still holds the stale entry.
func (r *staleRig) holds() bool {
	plen := ids.CommonPrefixLen(r.stale.ID, r.src.id, B)
	e := r.src.rows[plen][r.stale.ID.Digit(plen, B)]
	return e.ok && e.ID == r.stale.ID
}

// TestStaleEntryReroute sends a route and a join at a node whose next hop
// for them is a stale routing-table entry. The wasted transmission is
// charged at once, the node waits retryTimeout, drops the entry and
// reroutes, and the message ends at its key's ground-truth root.
func TestStaleEntryReroute(t *testing.T) {
	for _, tc := range []struct {
		name    string
		class   simnet.Class
		size    int
		send    func(r *staleRig, key ids.ID)
		reached func(r *staleRig, root simnet.Endpoint) bool
	}{
		{"route", simnet.ClassQuery, 100 + envelopeOverhead, func(r *staleRig, key ids.ID) {
			r.src.Route(key, "payload", 100, simnet.ClassQuery)
		}, func(r *staleRig, root simnet.Endpoint) bool {
			return len(r.apps[root].delivered) == 1
		}},
		{"join", simnet.ClassPastry, refBytes + 16, func(r *staleRig, key ids.ID) {
			r.src.handleJoinRequest(&joinRequest{Joiner: NodeRef{ID: key, EP: r.joinerEP}})
		}, func(r *staleRig, root simnet.Endpoint) bool {
			return len(r.repliedBy) == 1 && r.repliedBy[0] == root
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStaleRig(t)
			key := r.stale.ID
			if next, _ := r.src.nextHop(key); next != r.stale || !r.holds() {
				t.Fatalf("src's next hop for the stale node's id is %v, want the stale entry", next.ID.Short())
			}
			start := r.sched.Now()
			tx := r.net.Stats().TotalTx(tc.class)
			tc.send(r, key)
			if got := r.net.Stats().TotalTx(tc.class) - tx; got != float64(tc.size) {
				t.Errorf("the wasted hop charged %v bytes at once, want %d", got, tc.size)
			}
			r.sched.RunUntil(start + retryTimeout - time.Millisecond)
			if !r.holds() {
				t.Error("the stale entry was dropped before retryTimeout")
			}
			r.sched.RunUntil(start + retryTimeout)
			if r.holds() {
				t.Error("the stale entry is still held retryTimeout after the hop")
			}
			r.sched.RunUntil(start + time.Minute)
			if root, _ := r.ring.Root(key); !tc.reached(r, root.EP) {
				t.Errorf("the message did not end at the key's root, endpoint %d", root.EP)
			}
		})
	}
}

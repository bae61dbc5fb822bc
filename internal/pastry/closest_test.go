package pastry

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// The three closest-member sorts AppendClosest replaced, as they were:
// the overlay's replica set of the node's own id, metadata's replica set
// from leafset ∪ self, and aggtree's vertex backups.

func refReplicaSet(n *Node, k int) []NodeRef {
	out := append([]NodeRef(nil), n.leaf...)
	slices.SortFunc(out, func(a, b NodeRef) int {
		return n.id.AbsDistance(a.ID).Cmp(n.id.AbsDistance(b.ID))
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func refLocalReplicaSet(n *Node, subject ids.ID, k int) []NodeRef {
	cands := append(append([]NodeRef(nil), n.leaf...), n.Ref())
	slices.SortFunc(cands, func(a, b NodeRef) int {
		return subject.AbsDistance(a.ID).Cmp(subject.AbsDistance(b.ID))
	})
	return cands[:min(k, len(cands))]
}

func refBackupSet(n *Node, vertex ids.ID, m int) []NodeRef {
	cands := append([]NodeRef(nil), n.leaf...)
	slices.SortFunc(cands, func(a, b NodeRef) int {
		return vertex.AbsDistance(a.ID).Cmp(vertex.AbsDistance(b.ID))
	})
	if len(cands) > m {
		cands = cands[:m]
	}
	return cands
}

// TestAppendClosestMatchesReference holds AppendClosest to the three sorts
// it replaced, element for element, on random leafsets of 0 to l members,
// for every k and both ways of counting self. Half the keys are built to
// tie: two members at equal AbsDistance on either side of the key, or a
// member and self, so the order equal-distance candidates come out in is
// checked, not only the set. Results are appended after a non-empty
// prefix, which must survive.
func TestAppendClosestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []NodeRef{{ID: ids.MaxID, EP: 99}}
	checked := 0
	for _, size := range []int{0, 1, 3, 7, 8} {
		for trial := 0; trial < 200; trial++ {
			n := &Node{id: ids.Random(rng), ep: 1}
			key := ids.Random(rng)
			var members []ids.ID
			for len(members) < size {
				members = append(members, ids.Random(rng))
			}
			if d := (ids.ID{Lo: uint64(1 + rng.Intn(1000))}); trial%4 == 1 && size >= 2 {
				// Two members equally far from key, on either side of it.
				members[0], members[1] = key.Add(d), key.Sub(d)
			} else if trial%4 == 3 && size >= 1 {
				// A member and self equally far from key.
				members[0], n.id = key.Add(d), key.Sub(d)
			}
			n.leaf = make([]NodeRef, len(members))
			for i, id := range members {
				n.leaf[i] = NodeRef{ID: id, EP: simnet.Endpoint(2 + i)}
			}
			slices.SortFunc(n.leaf, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
			for _, k := range []int{0, 1, 3, 8, 16} {
				for _, withSelf := range []bool{false, true} {
					got := n.AppendClosest(slices.Clone(prefix), key, k, withSelf)
					if !slices.Equal(got[:1], prefix) {
						t.Fatalf("size %d, k %d: prefix overwritten: %v", size, k, got[:1])
					}
					var want []NodeRef
					if withSelf {
						want = refLocalReplicaSet(n, key, k)
					} else {
						want = refBackupSet(n, key, k)
					}
					if !slices.Equal(got[1:], want) {
						t.Fatalf("size %d, k %d, self %v, key %v, leafset %v: got %v, want %v",
							size, k, withSelf, key, n.leaf, got[1:], want)
					}
					if !withSelf {
						own := n.AppendClosest(nil, n.id, k, false)
						if want := refReplicaSet(n, k); !slices.Equal(own, want) {
							t.Fatalf("size %d, k %d: replica set %v, want %v", size, k, own, want)
						}
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d selections agree", checked)
}

// TestRouteEnvelopeSizeClass pins the routed message, which is the
// envelope itself, in the 112-byte allocation class.
func TestRouteEnvelopeSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(routeEnvelope{}); got > 112 {
		t.Fatalf("routeEnvelope is %d bytes, above its 112-byte size class", got)
	}
}

// nopApp is an application that keeps nothing.
type nopApp struct{}

func (nopApp) Deliver(ids.ID, simnet.Endpoint, any) {}
func (nopApp) LeafsetChanged()                      {}

// TestWarmRouteAllocs: once a ring has carried a batch of routes, the same
// batch again allocates nothing. Envelopes come off the ring's free list,
// delivery events off the wheel's, and the payload is the caller's.
func TestWarmRouteAllocs(t *testing.T) {
	const n, routes = 256, 512
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(8, 10*time.Millisecond, time.Millisecond)
	net := simnet.NewNetwork(sched, topo, n, simnet.DefaultNetworkConfig())
	ring := NewRing(net, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	eps := make([]simnet.Endpoint, n)
	nodes := make([]*Node, n)
	for i, id := range ids.RandomN(rng, n) {
		eps[i] = simnet.Endpoint(i)
		nodes[i] = ring.AddNode(eps[i], id, nopApp{})
	}
	ring.BootstrapAll(eps)
	keys := ids.RandomN(rng, routes)
	from := make([]*Node, routes)
	for i := range from {
		from[i] = nodes[rng.Intn(n)]
	}
	payload := &struct{ x int }{}
	batch := func() {
		for i, key := range keys {
			from[i].Route(key, payload, 64, simnet.ClassQuery)
		}
		sched.RunUntil(sched.Now() + time.Second)
	}
	if a := testing.AllocsPerRun(5, batch); a != 0 {
		t.Fatalf("%v allocations per batch of %d routes, want 0", a, routes)
	}
	// AllocsPerRun ran the batch six times; every hop sent one envelope.
	hops := net.Stats().TotalTx(simnet.ClassQuery) / float64(64+envelopeOverhead) / (6 * routes)
	if hops <= 1 {
		t.Fatalf("%.2f hops per route: the routes are not multi-hop", hops)
	}
	t.Logf("%.2f hops per route", hops)
}

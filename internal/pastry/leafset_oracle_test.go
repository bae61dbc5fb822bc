package pastry

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// The reference below is the leafset code as it stood before one function
// owned the leafset's history: the five paths that changed the leafset,
// each deciding for itself whether to raise LeafsetChanged, and the shadow
// map metadata kept to learn what had changed (prevLeaf, rebuilt at
// Activate and at every upcall). Core reads the same delta as metadata.

// refLiveLeafNeighbors is liveLeafNeighbors with its seen map.
func refLiveLeafNeighbors(r *Ring, from simnet.Endpoint, id ids.ID, lh int) []NodeRef {
	n := len(r.live)
	if n == 0 {
		return nil
	}
	k := 2 * lh
	if k > n {
		k = n
	}
	out := make([]NodeRef, 0, k)
	seen := make(map[ids.ID]bool, k+1)
	seen[id] = true
	at := r.liveIndex(id) % n
	for s, i := 0, at; s < lh && i < at+n; i++ { // successors
		ref := r.live[i%n]
		if !seen[ref.ID] && r.reachable(from, ref.EP) {
			seen[ref.ID] = true
			out = append(out, ref)
			s++
		}
	}
	for s, i := 0, at-1; s < lh && i > at-1-n; i-- { // predecessors
		ref := r.live[((i%n)+n)%n]
		if !seen[ref.ID] && r.reachable(from, ref.EP) {
			seen[ref.ID] = true
			out = append(out, ref)
			s++
		}
	}
	return out
}

// refSetLeafset is setLeafset: the l/2 nearest candidates on each side.
func refSetLeafset(self ids.ID, cands []NodeRef) []NodeRef {
	all := make([]NodeRef, 0, len(cands))
	for _, c := range cands {
		if c.ID != self {
			all = append(all, c)
		}
	}
	slices.SortFunc(all, func(a, b NodeRef) int {
		return self.Distance(a.ID).Cmp(self.Distance(b.ID))
	})
	all = slices.CompactFunc(all, func(a, b NodeRef) bool { return a.ID == b.ID })
	var leaf []NodeRef
	if len(all) <= 2*leafsetHalf {
		leaf = all
	} else {
		leaf = append(leaf, all[:leafsetHalf]...)
		leaf = append(leaf, all[len(all)-leafsetHalf:]...)
	}
	slices.SortFunc(leaf, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
	return leaf
}

// refNode is one node's leafset as the five paths kept it, with
// metadata's shadow map.
type refNode struct {
	leaf []NodeRef
	meta map[ids.ID]NodeRef
}

// installState is the bootstrap install; metadata's Activate then rebuilt
// its map from the leafset.
func (o *refNode) installState(r *Ring, n *Node) {
	o.leaf = refSetLeafset(n.id, refLiveLeafNeighbors(r, n.ep, n.id, leafsetHalf))
	o.activate()
}

// activate is metadata.Service.Activate's rebuild.
func (o *refNode) activate() {
	o.meta = map[ids.ID]NodeRef{}
	for _, m := range o.leaf {
		o.meta[m.ID] = m
	}
}

// handleJoinReply installed the reply and always reported; the joiner's
// OnReady then ran Activate.
func (o *refNode) handleJoinReply(self ids.ID, reply []NodeRef) bool {
	o.leaf = refSetLeafset(self, reply)
	return true
}

// handleAnnounce reported when the leafset grew or holds the announcer.
func (o *refNode) handleAnnounce(self ids.ID, ref NodeRef) bool {
	cands := append(slices.Clone(o.leaf), ref)
	before := len(o.leaf)
	o.leaf = refSetLeafset(self, cands)
	changed := len(o.leaf) != before
	if !changed {
		for _, m := range o.leaf {
			if m.ID == ref.ID {
				changed = true
				break
			}
		}
	}
	return changed
}

// removeFromLeafset and repairLeafset: a member's removal always reported.
// It returns the endpoints the repair pulled from.
func (o *refNode) removeFromLeafset(r *Ring, n *Node, ref NodeRef) (fired bool, pulled []simnet.Endpoint) {
	idx := -1
	for i, m := range o.leaf {
		if m.ID == ref.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	o.leaf = append(o.leaf[:idx], o.leaf[idx+1:]...)
	for i := 0; i < 2 && i < len(o.leaf); i++ {
		if target := o.leaf[len(o.leaf)-1-i]; r.isLive(target) {
			pulled = append(pulled, target.EP)
		}
	}
	o.leaf = refSetLeafset(n.id, refLiveLeafNeighbors(r, n.ep, n.id, leafsetHalf))
	return true, pulled
}

// reconcileLeafset reported when the merge moved the leafset.
func (o *refNode) reconcileLeafset(r *Ring, n *Node) bool {
	if !n.alive || n.joining {
		return false
	}
	want := refLiveLeafNeighbors(r, n.ep, n.id, leafsetHalf)
	cands := append(slices.Clone(o.leaf), want...)
	before := slices.Clone(o.leaf)
	o.leaf = refSetLeafset(n.id, cands)
	return !slices.Equal(before, o.leaf)
}

// upcall is what metadata computed from its map on LeafsetChanged: the
// added and removed members, sorted.
func (o *refNode) upcall() (added, removed []NodeRef) {
	cur := make(map[ids.ID]NodeRef)
	for _, m := range o.leaf {
		cur[m.ID] = m
	}
	for id, ref := range cur {
		if _, ok := o.meta[id]; !ok {
			added = append(added, ref)
		}
	}
	for id, ref := range o.meta {
		if _, ok := cur[id]; !ok {
			removed = append(removed, ref)
		}
	}
	byID := func(a, b NodeRef) int { return a.ID.Cmp(b.ID) }
	slices.SortFunc(added, byID)
	slices.SortFunc(removed, byID)
	o.meta = cur
	return added, removed
}

// deltaApp records what each upcall's LeafsetDelta says.
type deltaApp struct {
	n              *Node
	upcalls        int
	added, removed []NodeRef
}

func (a *deltaApp) Deliver(ids.ID, simnet.Endpoint, any) {}

func (a *deltaApp) LeafsetChanged() {
	a.upcalls++
	added, removed := a.n.LeafsetDelta()
	a.added, a.removed = slices.Clone(added), slices.Clone(removed)
}

// pastrySends records the pastry-class sends, as (from, to) pairs.
type pastrySends [][2]simnet.Endpoint

func (s *pastrySends) OnSend(from, to simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	if class == simnet.ClassPastry {
		*s = append(*s, [2]simnet.Endpoint{from, to})
	}
	return simnet.Fate{}
}

// sameRefs compares two member lists, nil and empty alike.
func sameRefs(a, b []NodeRef) bool { return len(a) == 0 && len(b) == 0 || slices.Equal(a, b) }

// TestLeafsetDeltaOracle runs random sequences of announces, member
// removals, reconciles, crashes, restarts and join replies on small rings,
// with partitions forming and healing, against the reference: the same
// leafset after every step, an upcall at exactly the steps the reference
// raised one, and a LeafsetDelta equal to metadata's map diff. Crashed
// nodes stay in their neighbors'
// leafsets until a removal step, so a restarted node's join reply often
// restores its old leafset, a member announces itself again, and a removal
// refills the member it removed: the upcalls that report no change. The
// reported leafset is metadata's map between steps, which is what
// UnavailableInRange reads. When the last node is down, the next to
// restart founds the overlay afresh (the "found" step).
func TestLeafsetDeltaOracle(t *testing.T) {
	steps, upcalls, quiet, founds := 0, 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		size := 3 + rng.Intn(16)
		sched := simnet.NewWheel()
		net := simnet.NewNetwork(sched, simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond),
			size, simnet.DefaultNetworkConfig())
		sends := &pastrySends{}
		net.SetFaultHook(sends)
		cfg := DefaultConfig()
		cfg.Seed = int64(trial)
		ring := NewRing(net, cfg)
		idList := ids.RandomN(rng, size)
		nodes := make([]*Node, size)
		apps := make([]*deltaApp, size)
		refs := make([]*refNode, size)
		eps := make([]simnet.Endpoint, size)
		for i := range nodes {
			apps[i] = &deltaApp{}
			nodes[i] = ring.AddNode(simnet.Endpoint(i), idList[i], apps[i])
			apps[i].n = nodes[i]
			refs[i] = &refNode{}
			eps[i] = simnet.Endpoint(i)
		}
		ring.BootstrapAll(eps)
		for i, n := range nodes {
			refs[i].installState(ring, n)
		}
		region := make([]int, size)
		ring.SetReachability(func(a, b simnet.Endpoint) bool { return region[a] == region[b] })

		for step := 0; step < 200; step++ {
			i := rng.Intn(size)
			n, o, app := nodes[i], refs[i], apps[i]
			ref := nodes[rng.Intn(size)].Ref()
			if len(n.leaf) > 0 && rng.Intn(2) == 0 {
				ref = n.leaf[rng.Intn(len(n.leaf))]
			}
			before := app.upcalls
			*sends = (*sends)[:0]
			var op string
			var fired bool
			var pulled []simnet.Endpoint
			switch k := rng.Intn(10); {
			case !n.alive && k < 6:
				op = "restart"
				if ring.NumLive() == 0 {
					// The node founds the overlay afresh: metadata's
					// Activate restarted its map from the empty leafset.
					op = "found"
					founds++
				}
				n.Start()
				o.leaf = nil
				if op == "found" {
					o.activate()
				}
			case !n.alive:
			case k < 3:
				op = "announce"
				if ref.ID == n.id {
					continue
				}
				n.handleAnnounce(ref)
				fired = o.handleAnnounce(n.id, ref)
			case k < 5:
				op = "remove"
				n.removeFromLeafset(ref)
				fired, pulled = o.removeFromLeafset(ring, n, ref)
			case k < 6:
				op = "reconcile"
				n.reconcileLeafset()
				fired = o.reconcileLeafset(ring, n)
			case k < 8 && n.joining:
				op = "join reply"
				reply := refLiveLeafNeighbors(ring, n.ep, n.id, leafsetHalf)
				n.handleJoinReply(&joinReply{Leafset: slices.Clone(reply)})
				fired = o.handleJoinReply(n.id, reply)
			case k < 8:
				op = "crash"
				n.Stop()
			case k == 8:
				op = "partition"
				for j := range region {
					region[j] = rng.Intn(2)
				}
			default:
				op = "heal"
				clear(region)
			}
			steps++

			if !sameRefs(n.leaf, o.leaf) {
				t.Fatalf("trial %d step %d %s at %d: leafset %v, reference %v", trial, step, op, i, n.leaf, o.leaf)
			}
			if got := app.upcalls - before; got != map[bool]int{false: 0, true: 1}[fired] {
				t.Fatalf("trial %d step %d %s at %d: %d upcalls, reference fired %v", trial, step, op, i, got, fired)
			}
			if fired {
				upcalls++
				added, removed := o.upcall()
				if len(added)+len(removed) == 0 {
					quiet++
				}
				if !sameRefs(app.added, added) || !sameRefs(app.removed, removed) {
					t.Fatalf("trial %d step %d %s at %d: delta +%v -%v, metadata's map diff +%v -%v",
						trial, step, op, i, app.added, app.removed, added, removed)
				}
			}
			if op == "join reply" {
				o.activate()
				var want [][2]simnet.Endpoint
				for _, m := range o.leaf {
					if ring.isLive(m) {
						want = append(want, [2]simnet.Endpoint{n.ep, m.EP})
					}
				}
				if !slices.Equal(*sends, want) {
					t.Fatalf("trial %d step %d: announces %v, reference %v", trial, step, *sends, want)
				}
			}
			if op == "remove" {
				var want [][2]simnet.Endpoint
				for _, ep := range pulled {
					want = append(want, [2]simnet.Endpoint{n.ep, ep})
				}
				if !slices.Equal(*sends, want) {
					t.Fatalf("trial %d step %d: repair pulls %v, reference %v", trial, step, *sends, want)
				}
			}
			for j, m := range nodes {
				reported := make([]NodeRef, 0, len(refs[j].meta))
				for _, r := range refs[j].meta {
					reported = append(reported, r)
				}
				slices.SortFunc(reported, func(a, b NodeRef) int { return a.ID.Cmp(b.ID) })
				if !sameRefs(m.reported, reported) {
					t.Fatalf("trial %d step %d %s: node %d reported %v, metadata's map %v",
						trial, step, op, j, m.reported, reported)
				}
			}
			from, id := simnet.Endpoint(rng.Intn(size)), ids.Random(rng)
			if got, want := ring.liveLeafNeighbors(nil, from, id), refLiveLeafNeighbors(ring, from, id, leafsetHalf); !sameRefs(got, want) {
				t.Fatalf("trial %d step %d: live neighbors of %v from %d: %v, reference %v", trial, step, id, from, got, want)
			}
		}
	}
	if quiet == 0 || quiet == upcalls || founds == 0 {
		t.Fatalf("%d of %d upcalls reported no change, %d founds: the sequences miss a case", quiet, upcalls, founds)
	}
	t.Logf("%d steps, %d upcalls, %d of them reporting no change; %d empty overlays founded", steps, upcalls, quiet, founds)
}

package pastry

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// linearInLeafsetSpan is inLeafsetSpan as it was before the arc was
// cached: both ends found by a scan of the whole leafset on every call.
// It is the oracle for the cached arc.
func linearInLeafsetSpan(n *Node, key ids.ID) bool {
	if len(n.leaf) < 2*leafsetHalf {
		return true
	}
	lo, hi := n.id, n.id
	var dSucc, dPred ids.ID
	for _, m := range n.leaf {
		cw := n.id.Distance(m.ID)
		ccw := m.ID.Distance(n.id)
		if cw.Less(ccw) {
			if dSucc.Less(cw) {
				hi, dSucc = m.ID, cw
			}
		} else if dPred.Less(ccw) {
			lo, dPred = m.ID, ccw
		}
	}
	return lo.Distance(key).Cmp(lo.Distance(hi)) <= 0
}

// linearClosestOfLeafset is closestOfLeafset as a scan: self first, then
// the members in id order, each replacing the best only when strictly
// closer — so ties go to self, then to the smaller id.
func linearClosestOfLeafset(n *Node, key ids.ID) NodeRef {
	best := n.Ref()
	bestD := n.id.AbsDistance(key)
	for _, m := range n.leaf {
		d := m.ID.AbsDistance(key)
		if d.Less(bestD) {
			best, bestD = m, d
		}
	}
	return best
}

// TestLeafsetRootMatchesLinearScan drives LeafsetRoot — the cached arc and
// the binary search — against the scans it replaced, on random leafsets
// of every size up to l, built by installLeafset and thinned one member at
// a time. Members sit at small
// integer offsets around a center that is often id 0, so arcs wrap round
// it and keys exactly halfway between two members, or between a member
// and self, are common.
func TestLeafsetRootMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const spread = 40
	centers := []ids.ID{{}, ids.MaxID.Half(), ids.MaxID}
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		center := ids.Random(rng)
		if trial%4 != 3 {
			center = centers[trial%3]
		}
		at := func(off int) ids.ID {
			if off < 0 {
				return center.Sub(ids.ID{Lo: uint64(-off)})
			}
			return center.Add(ids.ID{Lo: uint64(off)})
		}
		n := &Node{ring: &Ring{}, id: at(rng.Intn(2*spread+1) - spread)}
		cands := make([]NodeRef, rng.Intn(3*leafsetHalf+1))
		for i := range cands {
			cands[i] = NodeRef{ID: at(rng.Intn(2*spread+1) - spread), EP: simnet.Endpoint(1 + i)}
		}
		n.installLeafset(cands, bootstrap)
		for step := 0; ; step++ {
			keys := []ids.ID{ids.Random(rng), at(3 * spread), at(-3 * spread)}
			for off := -spread - 2; off <= spread+2; off++ {
				keys = append(keys, at(off))
			}
			for _, key := range keys {
				gotRoot, gotOK := n.LeafsetRoot(key)
				wantOK := linearInLeafsetSpan(n, key)
				if gotOK != wantOK {
					t.Fatalf("trial %d: self %v, leafset %v, key %v: in span %v, scan says %v",
						trial, n.id, n.leaf, key, gotOK, wantOK)
				}
				if got, want := n.closestOfLeafset(key), linearClosestOfLeafset(n, key); got != want {
					t.Fatalf("trial %d: self %v, leafset %v, key %v: closest %v, scan says %v",
						trial, n.id, n.leaf, key, got, want)
				}
				if gotOK && gotRoot != linearClosestOfLeafset(n, key) {
					t.Fatalf("trial %d: key %v: root %v", trial, key, gotRoot)
				}
				checked++
			}
			if len(n.leaf) == 0 || step == 2 {
				break
			}
			i := rng.Intn(len(n.leaf))
			n.leaf = slices.Delete(n.leaf, i, i+1)
			n.setArc()
		}
	}
	t.Logf("%d lookups agree", checked)
}

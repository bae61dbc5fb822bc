package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/pastry"
)

// leafsetChangeAllocCeiling is what TestLeafsetChangeAllocs allows one
// leafset change to cost metadata, the aggregation engine and the
// active-query handoff together, sends included: it measures 9 on go1.24
// linux/amd64. With the layers' shadow maps of the leafset, rebuilt on
// every change, the same change cost 15.
const leafsetChangeAllocCeiling = 10

// TestLeafsetChangeAllocs pins the allocations of an endsystem's handling
// of one leafset change on a warm cluster, handed over as LeafsetDelta
// names it: one member entered and one left. Each run re-replicates the
// records the newcomer now replicates, sends it this endsystem's own
// record and pulls its active-query list, so the sends' allocations are
// most of what the ceiling allows.
func TestLeafsetChangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := smallCluster(t, 48, 24*time.Hour, 3)
	c.RunUntil(2 * time.Hour)
	for _, n := range c.Nodes {
		leaf := n.pn.LeafsetView()
		if !n.Alive() || len(leaf) < 8 {
			continue
		}
		added := []pastry.NodeRef{leaf[0]}
		removed := []pastry.NodeRef{c.Ring.Node(leaf[0].EP).LeafsetView()[0]}
		if slices.Contains(leaf, removed[0]) {
			continue
		}
		rerepl := c.Ring.Obs().Counter("meta_rereplications")
		before := rerepl.Value()
		allocs := testing.AllocsPerRun(20, func() {
			n.meta.HandleLeafsetChanged(added, removed)
			n.tree.HandleLeafsetChanged()
			n.pullFromNewNeighbors(added)
		})
		t.Logf("%.1f allocations a change, %d re-replications", allocs, (rerepl.Value()-before)/21)
		if allocs > leafsetChangeAllocCeiling {
			t.Errorf("%.1f allocations a change, ceiling %d", allocs, leafsetChangeAllocCeiling)
		}
		return
	}
	t.Fatal("no endsystem with a full leafset")
}

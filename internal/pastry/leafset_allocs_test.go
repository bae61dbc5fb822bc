package pastry

import (
	"slices"
	"testing"

	"repro/internal/ids"
)

// TestLeafsetChangeAllocs pins the churn paths' allocations on a warm
// node: an announce whose newcomer enters the leafset (the leafset is put
// back before each run), one whose newcomer does not, a reconcile that
// finds nothing to add, and the answer to a repair pull. Each runs on the
// ring's scratch and the node's own leafset arrays, so none allocates. The
// paths these replaced, which cloned the leafset to add the newcomer,
// copied the candidates again to sort them, and built the neighbor list
// with a seen map and a copy of the leafset to compare with, made 5, 5 and
// 7 allocations here; the pull answer, which sent a copy of the leafset
// that no receiver read, made 2.
func TestLeafsetChangeAllocs(t *testing.T) {
	sched, _, nodes, _ := testRing(t, 64, 3)
	// The pull answer's send takes its event from the wheel's pool, as on
	// a wheel that has run: fill the pool first.
	for i := 0; i < 128; i++ {
		sched.After(0, func() {})
	}
	sched.RunUntil(sched.Now())
	n, app := nodes[0], appOf(t, nodes[0])
	enters := NodeRef{ID: n.id.AddUint64(1), EP: nodes[1].ep}
	far := NodeRef{ID: n.id.Add(ids.MaxID.Half()), EP: nodes[1].ep}
	if hasID(n.leaf, far.ID) {
		t.Fatal("the far newcomer is a member")
	}
	saved := slices.Clone(n.leaf)
	pull := &leafsetPull{From: nodes[1].Ref()}
	for _, tc := range []struct {
		name    string
		run     func()
		reports bool
	}{
		{"announce that enters", func() {
			n.leaf = append(n.leaf[:0], saved...)
			n.reported = append(n.reported[:0], saved...)
			n.handleAnnounce(enters)
		}, true},
		{"announce that does not enter", func() { n.handleAnnounce(far) }, false},
		{"reconcile that adds nothing", n.reconcileLeafset, false},
		{"repair pull answer", func() { n.handleLeafsetPull(pull) }, false},
	} {
		before := app.leafsetChanges
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.1f allocations, want 0", tc.name, allocs)
		}
		if reported := app.leafsetChanges > before; reported != tc.reports {
			t.Errorf("%s: reported %v, want %v", tc.name, reported, tc.reports)
		}
	}
	if !hasID(n.leaf, enters.ID) {
		t.Error("the newcomer did not enter")
	}
}

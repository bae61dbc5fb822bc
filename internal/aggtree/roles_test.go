package aggtree

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/ids"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// roleRig is a lossless 16-endsystem ring with the ladder on, and one
// vertex, vid, that hosts[root] is the root of, whose parent is the
// queryId, rooted at another endsystem.
type roleRig struct {
	*cluster
	qid   ids.ID
	vid   ids.ID
	root  int // the endsystem vid is rooted at
	other int // an endsystem that is not vid's root
}

func newRoleRig(t *testing.T, ttl time.Duration) *roleRig {
	t.Helper()
	cfg := hedgedConfig()
	cfg.QueryTTL = ttl
	r := &roleRig{cluster: newLossyCluster(t, 16, 41, cfg, 0), qid: ids.HashString("q-roles")}
	r.sched.RunUntil(time.Second)
	qroot, _ := r.ring.Root(r.qid)
	for i, h := range r.hosts {
		// A vertex one digit from the queryId, in this endsystem's part of
		// the namespace.
		vid := ids.ConcatPrefixSuffix(h.node.ID(), 1, r.qid, ids.DigitsPerID(pastry.B)-1, pastry.B)
		if vroot, _ := r.ring.Root(vid); vroot.EP == h.node.Endpoint() && vroot.EP != qroot.EP {
			r.vid, r.root, r.other = vid, i, (i+1)%len(r.hosts)
			if r.other == int(qroot.EP) {
				r.other = (i + 2) % len(r.hosts)
			}
			return r
		}
	}
	t.Fatal("no endsystem roots a vertex below the queryId's root")
	return nil
}

// part is a one-row partial of value x.
func part(x float64) agg.Partial {
	var p agg.Partial
	p.Observe(x)
	return p
}

// TestVertexRoles pins what each trigger does to a vertex's role: whether
// it leaves the vertex primary, counts a takeover, restarts the
// re-assertion ladder, cancels the replication flush or pulls the refresh
// chain in, and what the endsystem sends. Before each trigger the vertex
// holds one child at version 1, its ladder is at its third rung and due
// in an hour, a flush is pending, and it is primary or backup as the row
// says. The sends are those the endsystem made within half a second of
// the trigger, by kind: ack, delta (a one-entry replication), table (a
// whole-table replication), forward (the vertex's aggregate to its
// parent).
func TestVertexRoles(t *testing.T) {
	child, leaf := ids.HashString("role-child"), ids.HashString("role-leaf")
	held := contribution{Version: 1, Part: part(1), Contributors: 1}
	newer := contribution{Version: 2, Part: part(1), Contributors: 1} // same content
	other := contribution{Version: 1, Part: part(5), Contributors: 1} // a second child
	type outcome struct {
		primary   bool
		takeovers uint64
		restarted bool // the armed ladder was canceled: the next forward starts it at its first rung
		rung      int  // the ladder's rung after the trigger
		flushed   bool // the pending flush was canceled
		pulledIn  bool // the refresh chain's next tick moved earlier
		sends     string
	}
	for _, tc := range []struct {
		name    string
		onRoot  bool // the trigger runs at vid's root, else at another endsystem
		primary bool
		ttl     time.Duration
		trigger func(r *roleRig, e *Engine)
		want    outcome
	}{
		{"submission of new content to a backup", true, false, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.applySubmit(r.hosts[r.other].node.Endpoint(), &submitMsg{QID: r.qid, Vertex: r.vid, Child: leaf, C: other,
				WantAck: true, Injector: r.hosts[0].node.Endpoint(), Query: testQuery})
		}, outcome{true, 1, true, 0, false, true, "ack forward"}},
		{"refresh submission to a backup", true, false, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.applySubmit(r.hosts[r.other].node.Endpoint(), &submitMsg{QID: r.qid, Vertex: r.vid, Child: child, C: newer,
				WantAck: true, Injector: r.hosts[0].node.Endpoint(), Query: testQuery})
		}, outcome{true, 1, true, 0, false, true, "ack"}},
		{"replication of new content reaching a root backup", true, false, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.applyRepl(&replMsg{QID: r.qid, Vertex: r.vid, Child: leaf, C: other, Injector: r.hosts[0].node.Endpoint(), Query: testQuery})
		}, outcome{true, 1, true, 0, false, true, "forward"}},
		{"replication of unchanged content reaching a root backup", true, false, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.applyRepl(&replMsg{QID: r.qid, Vertex: r.vid, Children: childTable{{id: child, c: newer}},
				Injector: r.hosts[0].node.Endpoint(), Query: testQuery})
		}, outcome{true, 1, true, 0, false, true, ""}},
		{"leafset change that makes the endsystem root", true, false, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.HandleLeafsetChanged()
		}, outcome{true, 1, true, 0, true, true, "forward table table table"}},
		{"replication while not root", false, true, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.applyRepl(&replMsg{QID: r.qid, Vertex: r.vid, Child: leaf, C: other, Injector: r.hosts[0].node.Endpoint(), Query: testQuery})
		}, outcome{false, 0, true, 0, true, false, ""}},
		{"leafset change while not root", false, true, 48 * time.Hour, func(r *roleRig, e *Engine) {
			e.HandleLeafsetChanged()
		}, outcome{false, 0, true, 0, true, false, "table"}},
		{"refresh tick with QueryTTL 0", true, false, 0, func(r *roleRig, e *Engine) {
			// A backup's chain sleeps to its next safety pass, the third tick.
			r.sched.RunUntil(r.sched.Now() + 3*e.cfg.RefreshPeriod)
		}, outcome{true, 1, true, 0, false, false, "forward"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRoleRig(t, tc.ttl)
			at := r.other
			if tc.onRoot {
				at = r.root
			}
			h := r.hosts[at]
			if got := h.node.IsRootOf(r.vid); got != tc.onRoot {
				t.Fatalf("endsystem %d roots the vertex: %v, want %v", at, got, tc.onRoot)
			}
			e := h.engine
			v := e.vertex(e.register(r.qid, testQuery, r.hosts[0].node.Endpoint(), 0), r.vid)
			v.children.put(child, held)
			v.upVersion, v.primary = 1, tc.primary
			v.reassert.Start(r.sched, &reassertSchedule, func() {})
			v.reassert.Advance(&reassertSchedule, nil)
			v.reassert.Advance(&reassertSchedule, nil)
			v.reassert.Reschedule(r.sched.Now() + time.Hour)
			v.flush = r.sched.After(time.Hour, func() {})
			ladder := v.reassert.Timer
			tick, _ := v.refresh.When()

			var sends []string
			for _, x := range r.hosts {
				x.seen = func(from simnet.Endpoint, payload any) {
					if from != h.node.Endpoint() {
						return
					}
					switch m := payload.(type) {
					case *ackMsg:
						sends = append(sends, "ack")
					case *replMsg:
						if m.Children == nil {
							sends = append(sends, "delta")
						} else {
							sends = append(sends, "table")
						}
					case *submitMsg:
						sends = append(sends, "forward")
					default:
						sends = append(sends, fmt.Sprintf("%T", payload))
					}
				}
			}
			takeovers := r.counter("aggtree_takeovers")
			tc.trigger(r, e)
			next, _ := v.refresh.When()
			_, flushArmed := v.flush.When()
			_, ladderArmed := ladder.When()
			got := outcome{
				primary:   v.primary,
				takeovers: r.counter("aggtree_takeovers") - takeovers,
				restarted: !ladderArmed,
				rung:      v.reassert.N(),
				flushed:   !flushArmed,
				pulledIn:  next < tick,
			}
			r.sched.RunUntil(r.sched.Now() + 500*time.Millisecond)
			slices.Sort(sends)
			got.sends = strings.Join(sends, " ")
			if got != tc.want {
				t.Errorf("got  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

package aggtree

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/ids"
)

// update has host i replace its contribution with rows rows of value 1.
func (r *ackRig) update(i, rows int) {
	var p agg.Partial
	for j := 0; j < rows; j++ {
		p.Observe(1)
	}
	r.hosts[i].engine.Submit(r.qid, p, testQuery, r.injector, 0)
}

// hostedVertex returns the state h holds for one of the query's vertices.
func (r *ackRig) hostedVertex(t *testing.T, h *testHost, vertex ids.ID) *vertexState {
	t.Helper()
	st := h.engine.queries[r.qid]
	if st == nil {
		t.Fatalf("endsystem %d has no record of the query", h.node.Endpoint())
	}
	i, ok := st.findVertex(vertex)
	if !ok {
		t.Fatalf("endsystem %d does not host vertex %v", h.node.Endpoint(), vertex)
	}
	return st.vertices[i]
}

// TestReplicationCoalesced: k updates to one vertex inside a second reach
// each backup as one one-entry message and one table, whose UpVersion is
// that of the last forward; an update after a quiet hour goes out at once,
// alone. The two counters read what the network carried.
func TestReplicationCoalesced(t *testing.T) {
	r := newAckRig(t, 31, "q-repl-coalesce")
	leaf := r.remoteLeaf(t)
	entry := r.hosts[leaf].engine.chooseEntry(r.qid)
	primary := r.primaryOf(entry)

	type tally struct {
		deltas, tables int
		table          *replMsg
	}
	got := map[*testHost]*tally{}
	msgs, entries := 0, 0
	r.see = func(to *testHost, payload any) {
		m, ok := payload.(*replMsg)
		if !ok {
			return
		}
		msgs++
		entries += m.entries()
		if m.Vertex != entry {
			return
		}
		if got[to] == nil {
			got[to] = &tally{}
		}
		if m.Children == nil {
			got[to].deltas++
		} else {
			got[to].tables++
			got[to].table = m
		}
	}

	const k = 6
	for j := 1; j <= k; j++ {
		r.update(leaf, j)
		r.run(100 * time.Millisecond)
	}
	v := r.hostedVertex(t, primary, entry)
	if _, armed := v.flush.When(); !armed {
		t.Fatalf("no flush pending at the vertex after %d updates in %v", k, k*100*time.Millisecond)
	}
	r.run(2 * time.Second)
	if len(got) != plainConfig().Backups {
		t.Fatalf("%d endsystems received the vertex's replication, want the %d backups", len(got), plainConfig().Backups)
	}
	for to, n := range got {
		if n.deltas != 1 || n.tables != 1 {
			t.Fatalf("backup %d received %d one-entry messages and %d tables for %d updates inside a second, want 1 and 1",
				to.node.Endpoint(), n.deltas, n.tables, k)
		}
		if n.table.UpVersion != k || n.table.UpVersion != v.upVersion {
			t.Fatalf("the table carries UpVersion %d, the vertex forwarded %d times and is at %d", n.table.UpVersion, k, v.upVersion)
		}
		if c, _ := n.table.Children.get(r.hosts[leaf].node.ID()); c.Version != k {
			t.Fatalf("the table carries the leaf at version %d, want %d", c.Version, k)
		}
	}
	if got := primary.engine.FlushTimers(); got != 0 {
		t.Fatalf("%d flushes pending after the table went out", got)
	}

	r.run(time.Hour)
	clear(got)
	r.update(leaf, k+1)
	r.run(200 * time.Millisecond)
	alone := func(when string) {
		t.Helper()
		if len(got) != plainConfig().Backups {
			t.Fatalf("%s: %d backups received the lone update", when, len(got))
		}
		for to, n := range got {
			if n.deltas != 1 || n.tables != 0 {
				t.Fatalf("%s: backup %d received %d one-entry messages and %d tables for one update after a quiet hour, want 1 and 0",
					when, to.node.Endpoint(), n.deltas, n.tables)
			}
		}
	}
	alone("at once")
	if got := primary.engine.FlushTimers(); got != 0 {
		t.Fatalf("a lone update armed %d flushes", got)
	}
	r.run(2 * time.Second)
	alone("two seconds on")

	if got := r.counter("aggtree_replications"); got != uint64(msgs) {
		t.Fatalf("aggtree_replications = %d, the network carried %d", got, msgs)
	}
	if got := r.counter("aggtree_repl_entries"); got != uint64(entries) {
		t.Fatalf("aggtree_repl_entries = %d, the network carried %d", got, entries)
	}
}

// TestPrimaryCrashInsideReplicationWindow is what the window exposes: an
// acknowledged update whose primary dies before the flush is on no backup.
// The leaf's re-send to the new root (an ack stands only for the primary
// that gave it) brings it back; with the leaf down too, its rejoin does.
func TestPrimaryCrashInsideReplicationWindow(t *testing.T) {
	// setup has everyone contribute one row, then the leaf update twice, to
	// two rows and then three, 100 ms apart: the second update lands inside
	// the window the first opened. It returns 300 ms later, with the second
	// update acknowledged and on the primary alone.
	setup := func(t *testing.T, seed int64, name string) (r *ackRig, leaf int, entry ids.ID, primary *testHost) {
		r = newAckRig(t, seed, name)
		leaf = r.remoteLeaf(t)
		leafID := r.hosts[leaf].node.ID()
		for i := range r.hosts {
			r.update(i, 1)
		}
		r.run(time.Minute)
		entry, _ = r.hosts[leaf].engine.EntryVertex(r.qid)
		primary = r.primaryOf(entry)
		r.see = func(to *testHost, payload any) {
			m, ok := payload.(*replMsg)
			if !ok || m.Vertex != entry {
				return
			}
			if c, ok := m.Children.get(leafID); (ok && c.Version == 3) || (m.Child == leafID && m.C.Version == 3) {
				t.Errorf("the second update reached backup %d inside the window", to.node.Endpoint())
			}
		}
		r.update(leaf, 2)
		r.run(100 * time.Millisecond)
		r.update(leaf, 3)
		r.run(300 * time.Millisecond)
		r.see = nil
		st := r.hosts[leaf].engine.queries[r.qid]
		if st.own.Version != 3 || !st.acked || r.hosts[st.ackedBy] != primary {
			t.Fatalf("the leaf is at version %d, acknowledged %v; want 3, acknowledged by the primary", st.own.Version, st.acked)
		}
		if _, armed := r.hostedVertex(t, primary, entry).flush.When(); !armed {
			t.Fatal("no flush pending at the vertex")
		}
		return
	}
	kill := func(h *testHost) {
		h.node.Stop()
		h.engine.Reset()
		if got := h.engine.FlushTimers(); got != 0 {
			t.Fatalf("Reset left %d flushes pending", got)
		}
	}

	t.Run("primary", func(t *testing.T) {
		r, leaf, entry, primary := setup(t, 32, "q-repl-crash")
		n := len(r.hosts)
		kill(primary)
		r.run(5 * time.Minute)
		root := r.primaryOf(entry)
		if root == primary {
			t.Fatal("the dead primary is still the entry vertex's root")
		}
		if c, _ := r.hostedVertex(t, root, entry).children.get(r.hosts[leaf].node.ID()); c.Version != 3 {
			t.Fatalf("the new root holds the leaf at version %d, want 3 from the leaf's re-send", c.Version)
		}
		if got := r.counter("aggtree_resubmits"); got == 0 {
			t.Fatal("aggtree_resubmits = 0: the leaf did not send again")
		}
		r.run(10 * time.Minute)
		r.checkTotal(t, float64(n-1+3), n)
	})

	t.Run("primary and leaf", func(t *testing.T) {
		r, leaf, _, primary := setup(t, 33, "q-repl-crash-both")
		n := len(r.hosts)
		h := r.hosts[leaf]
		kill(primary)
		kill(h)
		r.run(15 * time.Minute)
		// What the backups had: the first update.
		r.checkTotal(t, float64(n-1+2), n)

		h.node.OnReady = func() { r.update(leaf, 3) }
		h.node.Start()
		r.run(15 * time.Minute)
		r.checkTotal(t, float64(n-1+3), n)
	})
}

// TestNoLeakedFlush: a pending flush does not outlive the vertex, the
// query or the primary role, and sends nothing once any of them is gone.
func TestNoLeakedFlush(t *testing.T) {
	// arm delivers two submissions for one vertex, 100 ms apart, to an
	// endsystem that is not the vertex's root (as routing through a stale
	// table would), and returns it with the flush pending.
	arm := func(t *testing.T, seed int64, name string) (r *ackRig, h *testHost, tables *int) {
		r = newAckRig(t, seed, name)
		h = r.hosts[1]
		if h.node.IsRootOf(r.qid) {
			h = r.hosts[2]
		}
		tables = new(int)
		r.see = func(_ *testHost, payload any) {
			if m, ok := payload.(*replMsg); ok && m.Children != nil {
				*tables++
			}
		}
		for j, child := range []string{"a", "b"} {
			var p agg.Partial
			p.Observe(float64(j + 1))
			h.engine.applySubmit(r.injector, &submitMsg{QID: r.qid, Vertex: r.qid, Child: ids.HashString(child),
				C: contribution{Version: 1, Part: p, Contributors: 1}, Injector: r.injector, Query: testQuery})
			r.run(100 * time.Millisecond)
		}
		if got := h.engine.FlushTimers(); got != 1 {
			t.Fatalf("%d flushes pending after two submissions inside a second, want 1", got)
		}
		return
	}
	// settled runs past the window and checks that nothing was flushed.
	settled := func(t *testing.T, r *ackRig, h *testHost, tables *int, sent int) {
		t.Helper()
		if got := h.engine.FlushTimers(); got != 0 {
			t.Fatalf("%d flushes still pending", got)
		}
		r.run(2 * time.Second)
		if *tables != sent {
			t.Fatalf("%d tables went out, want %d", *tables, sent)
		}
	}

	t.Run("cancel", func(t *testing.T) {
		r, h, tables := arm(t, 34, "q-flush-cancel")
		h.engine.CancelPropagate(r.qid)
		settled(t, r, h, tables, 0)
	})
	t.Run("expiry", func(t *testing.T) {
		r, h, tables := arm(t, 35, "q-flush-expiry")
		h.engine.cfg.QueryTTL = 500 * time.Millisecond
		r.run(2 * time.Second)
		settled(t, r, h, tables, 0)
	})
	t.Run("reset", func(t *testing.T) {
		r, h, tables := arm(t, 36, "q-flush-reset")
		h.engine.Reset()
		settled(t, r, h, tables, 0)
	})
	t.Run("leafset change", func(t *testing.T) {
		r, h, tables := arm(t, 37, "q-flush-leafset")
		h.engine.HandleLeafsetChanged()
		if r.hostedVertex(t, h, r.qid).primary {
			t.Fatal("still primary of a vertex rooted elsewhere")
		}
		// The state went to the root instead, which as the vertex's new
		// primary replicates it to its own backups.
		r.run(100 * time.Millisecond)
		sent := *tables
		if sent == 0 {
			t.Fatal("the state was not pushed to the vertex's root")
		}
		settled(t, r, h, tables, sent)
	})
	t.Run("replication from the root", func(t *testing.T) {
		r, h, tables := arm(t, 38, "q-flush-repl")
		h.engine.applyRepl(&replMsg{QID: r.qid, Vertex: r.qid, Children: childTable{}, Injector: r.injector, Query: testQuery})
		if r.hostedVertex(t, h, r.qid).primary {
			t.Fatal("still primary of a vertex rooted elsewhere")
		}
		settled(t, r, h, tables, 0)
	})
}

// TestVertexStateSizeClass pins a vertex's state to the 128-byte allocator
// size class. It holds its three timer handles (refresh, reassert, flush) by
// value, 16 bytes each: they were pointers to handles of 24 bytes apiece,
// so a vertex with its refresh timer alone cost 112 + 24.
func TestVertexStateSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(vertexState{}); got > 128 {
		t.Fatalf("vertexState is %d bytes, above its 128-byte size class", got)
	}
}

package aggtree

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/ids"
	"repro/internal/simnet"
)

// ackRig is the lossless 64-node cluster the acknowledgement tests share:
// every routed payload passes through see (after the per-test drop filter,
// which loses the ones it reports true for).
type ackRig struct {
	*cluster
	qid      ids.ID
	injector simnet.Endpoint
	drop     func(to *testHost, payload any) bool
	see      func(to *testHost, payload any)
}

func newAckRig(t *testing.T, seed int64, name string) *ackRig {
	t.Helper()
	r := &ackRig{cluster: newLossyCluster(t, 64, seed, plainConfig(), 0), qid: ids.HashString(name)}
	r.injector = r.hosts[0].node.Endpoint()
	for _, h := range r.hosts {
		h := h
		h.drop = func(payload any) bool {
			if r.drop != nil && r.drop(h, payload) {
				return true
			}
			if r.see != nil {
				r.see(h, payload)
			}
			return false
		}
	}
	r.sched.RunUntil(time.Second)
	return r
}

// submit has host i contribute value i+1 for one row.
func (r *ackRig) submit(i int) {
	var p agg.Partial
	p.Observe(float64(i + 1))
	r.hosts[i].engine.Submit(r.qid, p, testQuery, r.injector, 0)
}

func (r *ackRig) run(d time.Duration) { r.sched.RunUntil(r.sched.Now() + d) }

// primaryOf returns the host that is the vertexId's root.
func (r *ackRig) primaryOf(vertex ids.ID) *testHost {
	root, _ := r.ring.Root(vertex)
	return r.hosts[root.EP]
}

// remoteLeaf returns the index of a host other than the injector whose
// entry vertex would live on another endsystem that is in its leafset
// span, so that its submission is routed and its ack is bound to a
// primary it can name.
func (r *ackRig) remoteLeaf(t *testing.T) int {
	t.Helper()
	for i := len(r.hosts) - 1; i > 0; i-- {
		h := r.hosts[i]
		entry := h.engine.chooseEntry(r.qid)
		if root, ok := h.node.LeafsetRoot(entry); ok && root.EP != h.node.Endpoint() {
			return i
		}
	}
	t.Fatal("no host with a remote entry vertex inside its leafset span")
	return 0
}

// leafCopy reports whether payload is a copy of host i's own contribution.
func (r *ackRig) leafCopy(payload any, i int) (*submitMsg, bool) {
	m, ok := payload.(*submitMsg)
	return m, ok && m.WantAck && m.Child == r.hosts[i].node.ID()
}

func (r *ackRig) checkTotal(t *testing.T, want float64, contributors int) {
	t.Helper()
	got := latestResult(t, r.hosts[0])
	if got.part.Final(agg.Sum) != want || got.contributors != int64(contributors) {
		t.Fatalf("injector has sum %v from %d contributors, want %v from %d",
			got.part.Final(agg.Sum), got.contributors, want, contributors)
	}
}

// TestAckedSubmissionZeroLoss is the zero-loss budget: on a converged
// lossless tree every routed leaf submission is acknowledged once, nothing
// is retransmitted, no child table sees a duplicate, and no leaf timer
// outlives the round trip.
func TestAckedSubmissionZeroLoss(t *testing.T) {
	r := newAckRig(t, 21, "q-ack-zero")
	routed := 0
	r.see = func(_ *testHost, payload any) {
		if m, ok := payload.(*submitMsg); ok && m.WantAck {
			routed++
		}
	}
	n := len(r.hosts)
	for i := range r.hosts {
		r.submit(i)
	}
	r.run(time.Second)
	for _, h := range r.hosts {
		if got := h.engine.ResubmitTimers(); got != 0 {
			t.Fatalf("endsystem %d has %d leaf timers armed a second after a lossless submit", h.node.Endpoint(), got)
		}
	}
	r.run(20 * time.Minute)
	r.checkTotal(t, float64(n*(n+1)/2), n)
	if routed == 0 || routed > n {
		t.Fatalf("%d routed leaf submissions from %d endsystems", routed, n)
	}
	if got := r.counter("aggtree_acks"); got != uint64(routed) {
		t.Fatalf("aggtree_acks = %d, want one per routed leaf submission (%d)", got, routed)
	}
	if got := r.counter("aggtree_resubmits"); got != 0 {
		t.Fatalf("aggtree_resubmits = %d at zero loss, want 0", got)
	}
	if got := r.counter("aggtree_dup_contributions"); got != 0 {
		t.Fatalf("aggtree_dup_contributions = %d at zero loss, want 0", got)
	}
}

// TestUnackedSubmissionRetriesUntilAcked: a leaf whose first six copies are
// lost keeps sending on the capped schedule, and the seventh is counted
// once.
func TestUnackedSubmissionRetriesUntilAcked(t *testing.T) {
	r := newAckRig(t, 22, "q-ack-retry")
	n := len(r.hosts)
	leaf := r.remoteLeaf(t)
	for i := range r.hosts {
		if i != leaf {
			r.submit(i)
		}
	}
	r.run(time.Minute)

	var sentAt []time.Duration
	r.drop = func(_ *testHost, payload any) bool {
		m, ok := r.leafCopy(payload, leaf)
		if !ok {
			return false
		}
		sentAt = append(sentAt, m.SentAt)
		return len(sentAt) <= 6
	}
	r.submit(leaf)
	r.run(40 * time.Minute)

	gaps := []time.Duration{20 * time.Second, time.Minute, 3 * time.Minute, 9 * time.Minute, 9 * time.Minute, 9 * time.Minute}
	if len(sentAt) != len(gaps)+1 {
		t.Fatalf("%d copies sent, want %d (six lost, the seventh acknowledged)", len(sentAt), len(gaps)+1)
	}
	for i, gap := range gaps {
		if got := sentAt[i+1] - sentAt[i]; got != gap {
			t.Fatalf("copy %d sent %v after the one before, want %v", i+2, got, gap)
		}
	}
	if got := r.counter("aggtree_resubmits"); got != 6 {
		t.Fatalf("aggtree_resubmits = %d, want 6", got)
	}
	if got := r.counter("aggtree_dup_contributions"); got != 0 {
		t.Fatalf("aggtree_dup_contributions = %d, want 0: only one copy arrived", got)
	}
	if got := r.hosts[leaf].engine.ResubmitTimers(); got != 0 {
		t.Fatalf("%d leaf timers armed after the ack", got)
	}
	r.checkTotal(t, float64(n*(n+1)/2), n)
}

// TestLostAckIsRepeated: the submission arrives but its ack does not. The
// leaf's one retransmission is a duplicate at the vertex, which acks again.
func TestLostAckIsRepeated(t *testing.T) {
	r := newAckRig(t, 23, "q-ack-lost")
	n := len(r.hosts)
	leaf := r.remoteLeaf(t)
	lost := 0
	r.drop = func(to *testHost, payload any) bool {
		if _, ok := payload.(*ackMsg); ok && to == r.hosts[leaf] && lost == 0 {
			lost++
			return true
		}
		return false
	}
	copies := 0
	r.see = func(_ *testHost, payload any) {
		if _, ok := r.leafCopy(payload, leaf); ok {
			copies++
		}
	}
	for i := range r.hosts {
		r.submit(i)
	}
	r.run(time.Second)
	if got := r.hosts[leaf].engine.ResubmitTimers(); got != 1 {
		t.Fatalf("%d leaf timers armed with the ack lost, want 1", got)
	}
	acks := r.counter("aggtree_acks")
	r.run(20 * time.Minute)
	if lost != 1 || copies != 2 {
		t.Fatalf("%d acks lost and %d copies arrived, want 1 and 2", lost, copies)
	}
	if got := r.counter("aggtree_resubmits"); got != 1 {
		t.Fatalf("aggtree_resubmits = %d, want 1", got)
	}
	if got := r.counter("aggtree_dup_contributions"); got != 1 {
		t.Fatalf("aggtree_dup_contributions = %d, want 1: the retransmission", got)
	}
	if got := r.counter("aggtree_acks"); got != acks+1 {
		t.Fatalf("aggtree_acks went from %d to %d, want the duplicate acked once more", acks, got)
	}
	if got := r.hosts[leaf].engine.ResubmitTimers(); got != 0 {
		t.Fatalf("%d leaf timers armed after the repeated ack", got)
	}
	r.checkTotal(t, float64(n*(n+1)/2), n)
}

// TestStaleAckDoesNotSilenceNewerVersion: an ack for version 1 that arrives
// after version 2 went out leaves version 2's timer armed.
func TestStaleAckDoesNotSilenceNewerVersion(t *testing.T) {
	r := newAckRig(t, 24, "q-ack-stale")
	leaf := r.remoteLeaf(t)
	h := r.hosts[leaf]
	var stale *ackMsg
	r.drop = func(to *testHost, payload any) bool {
		if a, ok := payload.(*ackMsg); ok && to == h && stale == nil {
			stale = a
			return true
		}
		return false
	}
	r.submit(leaf)
	r.run(time.Second)
	if stale == nil || stale.Version != 1 {
		t.Fatalf("held back %+v, want the ack for version 1", stale)
	}

	var p agg.Partial
	p.Observe(1000)
	h.engine.Submit(r.qid, p, testQuery, r.injector, 0)
	entry, _ := h.engine.EntryVertex(r.qid)
	h.engine.HandleMessage(r.primaryOf(entry).node.Endpoint(), stale)
	st := h.engine.queries[r.qid]
	if st.own.Version != 2 || st.acked || h.engine.ResubmitTimers() != 1 {
		t.Fatalf("after the stale ack: own version %d, acked %v, %d timers; want version 2 unacknowledged with its timer armed",
			st.own.Version, st.acked, h.engine.ResubmitTimers())
	}
	r.run(time.Second)
	if st.own.Version != 2 || !st.acked || h.engine.ResubmitTimers() != 0 {
		t.Fatalf("version 2's own ack left version %d, acked = %v and %d timers", st.own.Version, st.acked, h.engine.ResubmitTimers())
	}
}

// TestAckBoundToPrimary: an ack stands only for the primary that gave it.
// When the entry vertex's root moves — its primary dies, then rejoins — the
// leaf sends its contribution once to each new root; a leafset change that
// leaves the root where it was sends nothing.
func TestAckBoundToPrimary(t *testing.T) {
	r := newAckRig(t, 25, "q-ack-bound")
	n := len(r.hosts)
	leaf := r.remoteLeaf(t)
	h := r.hosts[leaf]
	var got []*testHost
	r.see = func(to *testHost, payload any) {
		if _, ok := r.leafCopy(payload, leaf); ok {
			got = append(got, to)
		}
	}
	for i := range r.hosts {
		r.submit(i)
	}
	r.run(time.Minute)
	entry, _ := h.engine.EntryVertex(r.qid)
	first := r.primaryOf(entry)
	if len(got) != 1 || got[0] != first || first == h {
		t.Fatalf("the first submission reached %d endsystems, want only the entry vertex's primary", len(got))
	}
	st := h.engine.queries[r.qid]
	ackedBy := func() *testHost { return r.hosts[st.ackedBy] }

	// An unrelated change: a member of the leaf's leafset other than the
	// primary (and the injector) dies.
	var bystander *testHost
	for _, ref := range h.node.LeafsetView() {
		if b := r.hosts[ref.EP]; b != first && b != r.hosts[0] {
			bystander = b
			break
		}
	}
	bystander.node.Stop()
	bystander.engine.Reset()
	r.run(5 * time.Minute)
	if len(got) != 1 || ackedBy() != first {
		t.Fatalf("a leafset change away from the entry vertex caused %d re-sends", len(got)-1)
	}

	// The primary dies: one re-send, to whoever is the root now.
	first.node.Stop()
	first.engine.Reset()
	r.run(5 * time.Minute)
	second := r.primaryOf(entry)
	if second == first || len(got) != 2 || got[1] != second {
		t.Fatalf("after the primary's death %d copies were sent, want one more, to the new root", len(got))
	}
	if second != h && (ackedBy() != second || !st.acked) {
		t.Fatalf("the contribution is not acknowledged by the new root")
	}
	if h.engine.ResubmitTimers() != 0 {
		t.Fatal("a leaf timer is still armed after the new root's ack")
	}

	// The old primary rejoins and is the root again: one re-send, to it.
	first.node.Start()
	r.run(5 * time.Minute)
	if r.primaryOf(entry) != first || len(got) != 3 || got[2] != first || ackedBy() != first {
		t.Fatalf("after the old primary rejoined %d copies were sent, want one more, to it", len(got))
	}
	if got := r.counter("aggtree_resubmits"); got < 2 {
		t.Fatalf("aggtree_resubmits = %d, want the re-sends counted", got)
	}
	// Everyone who is alive, and everyone who contributed before dying, is
	// counted once.
	r.run(10 * time.Minute)
	r.checkTotal(t, float64(n*(n+1)/2), n)
}

// TestCanceledSubmissionIsAnswered: a leaf the cancel fan-out never reached
// — it was in no child table — learns of the cancel from the answer to
// its submission. With its first copy lost, that is the answer to its first
// retransmission, which is also its last.
func TestCanceledSubmissionIsAnswered(t *testing.T) {
	r := newAckRig(t, 26, "q-ack-cancel")
	// The last eight endsystems hold back; the late leaf is one of them
	// that ends up holding nothing of the query, so that no cancel is
	// addressed to it.
	n := len(r.hosts)
	for i := 0; i < n-8; i++ {
		r.submit(i)
	}
	r.run(time.Minute)
	r.hosts[0].engine.CancelPropagate(r.qid)
	r.run(time.Minute)
	late := -1
	for i := n - 8; i < n; i++ {
		h := r.hosts[i]
		root, ok := h.node.LeafsetRoot(h.engine.chooseEntry(r.qid))
		_, held := h.engine.queries[r.qid]
		if ok && root.EP != h.node.Endpoint() && !held && !h.engine.canceled(r.qid) {
			late = i
			break
		}
	}
	if late < 0 {
		t.Fatal("the cancel reached every endsystem that held back")
	}
	h := r.hosts[late]

	copies := 0
	r.drop = func(_ *testHost, payload any) bool {
		if _, ok := r.leafCopy(payload, late); ok {
			copies++
			return copies == 1
		}
		return false
	}
	results := len(r.hosts[0].results)
	r.submit(late)
	r.run(30 * time.Minute)
	if copies != 2 {
		t.Fatalf("%d copies sent, want 2: the lost one and the retransmission the cancel answers", copies)
	}
	if got := r.counter("aggtree_resubmits"); got != 1 {
		t.Fatalf("aggtree_resubmits = %d, want exactly 1", got)
	}
	if got := h.engine.ResubmitTimers(); got != 0 || h.engine.IsActive(r.qid) {
		t.Fatalf("the late leaf has %d timers armed and active = %v after the answer", got, h.engine.IsActive(r.qid))
	}
	if got := len(r.hosts[0].results); got != results {
		t.Fatalf("injector received %d new results after the cancel", got-results)
	}
}

// TestSubmitAfterCancelSendsNothing: an endsystem that holds a query as
// canceled does not contribute to it again. A leaf the cancel fan-out
// reached submits a new partial: nothing goes on the wire, no timer is
// armed, and the query's entry stays a tombstone, with no record behind it.
func TestSubmitAfterCancelSendsNothing(t *testing.T) {
	r := newAckRig(t, 27, "q-submit-after-cancel")
	for i := range r.hosts {
		r.submit(i)
	}
	r.run(time.Minute)
	r.hosts[0].engine.CancelPropagate(r.qid)
	r.run(time.Minute)
	h := r.hosts[r.remoteLeaf(t)]
	tombstone := func() bool {
		_, held := h.engine.queries[r.qid]
		return !held && h.engine.canceled(r.qid)
	}
	if !tombstone() {
		t.Fatal("the cancel did not leave a tombstone at the leaf")
	}

	sends := r.counter("net_sends")
	var p agg.Partial
	p.Observe(1000)
	h.engine.Submit(r.qid, p, testQuery, r.injector, 0)
	if got := h.engine.ResubmitTimers(); got != 0 {
		t.Fatalf("%d leaf timers armed by a submission after the cancel", got)
	}
	r.run(30 * time.Minute)
	if got := r.counter("net_sends"); got != sends {
		t.Fatalf("a submission after the cancel sent %d messages", got-sends)
	}
	if !tombstone() || h.engine.IsActive(r.qid) {
		t.Fatalf("a submission after the cancel made a record; active = %v", h.engine.IsActive(r.qid))
	}
}

// TestQueryStateSizeClass pins the record to the allocator size class it
// had before it carried the ack (176 bytes): every endsystem keeps one per
// query it has heard of.
func TestQueryStateSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(queryState{}); got > 176 {
		t.Fatalf("queryState is %d bytes, above its 176-byte size class", got)
	}
}

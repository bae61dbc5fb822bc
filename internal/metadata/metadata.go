// Package metadata implements Seaweed's application-independent metadata
// replication service (§3.2). Each endsystem's metadata — the column
// histograms of its local database and its availability model — is
// actively replicated on the k endsystems numerically closest to its
// endsystemId (its replica set). Pushes happen when the endsystem
// (re)joins, periodically while it is up, and when replica-set membership
// changes due to churn; replicas also re-replicate records among
// themselves as membership shifts so that the metadata of any endsystem
// that was ever available remains available with high probability, even
// long after the endsystem itself went down.
//
// A periodic push carries the record only "if there is any change"
// (§3.2.2): a member that already holds the subject's current content
// generation gets a beacon, the record's header alone, which refreshes its
// version and marks the subject up. A member whose copy is missing or of
// another generation answers a beacon with a pull, and the subject sends
// it the full record.
//
// Replica-set members record the time at which they notice the subject
// endsystem become unavailable; together with the replicated availability
// model, that is what lets any replica generate a completeness predictor
// on the subject's behalf.
package metadata

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/avail"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Record is the replicated metadata of one endsystem.
type Record struct {
	Subject   ids.ID
	Version   time.Duration // push time at the subject; newer wins
	Gen       uint64        // content generation: bumped when Summary or Model changes
	Summary   *relq.Summary
	Model     *avail.Model
	Up        bool
	DownSince time.Duration // meaningful when !Up
	WireSize  int           // cached encoded size of summary+model+header
}

// clone returns a copy safe to hand to another node; Summary and Model are
// immutable by convention once published.
func (r *Record) clone() *Record {
	c := *r
	return &c
}

// recordHeaderBytes is a record's fixed header: subject, version, and a
// flags word that holds the up bit and the content generation. A beacon
// is this header alone.
const recordHeaderBytes = ids.Bytes + 8 + 8

// pullBytes is a pull's wire size: the subject and the generation held.
const pullBytes = ids.Bytes + 8

// pushMsg replicates a record to one replica-set member: in full, or with
// Beacon set as its header alone, of which the receiver reads Subject,
// Version and Gen only. From is the sender, where a beacon's receiver
// sends its pull. The wrappers are pooled: a push to a K-member replica
// set sends K of them, and the receiver recycles each as soon as it has
// taken the record out. Wrappers lost in flight just fall to the garbage
// collector. The pool is package-level (clusters in parallel sweep runs
// share it), so it must be a sync.Pool rather than a single-threaded free
// list.
type pushMsg struct {
	Rec    *Record
	From   simnet.Endpoint
	Beacon bool
}

var pushMsgPool = sync.Pool{New: func() any { return new(pushMsg) }}

// SingleDelivery opts push wrappers out of the duplication fault: the
// receiver recycles them at delivery, so a second delivery would read
// freed state.
func (*pushMsg) SingleDelivery() {}

// pullMsg asks a subject for its full record: a beacon named a generation
// the puller does not hold.
type pullMsg struct {
	From pastry.NodeRef
}

// recordWireSize computes the on-the-wire size of a record push.
func recordWireSize(sum *relq.Summary) int {
	size := recordHeaderBytes + avail.EncodedModelSize
	if sum != nil {
		size += sum.EncodedSize()
	}
	return size
}

// K is the replica-set size (paper Table 1 and simulation: k=8). It is
// exported because the chaos harness audits the same replica sets.
const K = 8

// evictSlack controls when a node drops records it is no longer
// responsible for: a record is evicted when the node is not among the
// evictSlack*K locally-closest nodes to the subject.
const evictSlack = 2

// Config parameterizes a metadata service.
type Config struct {
	// PushPeriod is the mean period of proactive summary pushes (paper
	// simulation: 17.5 minutes, each endsystem choosing its phase
	// randomly to avoid bandwidth spikes).
	PushPeriod time.Duration
}

// DefaultConfig returns the paper's metadata configuration.
func DefaultConfig() Config {
	return Config{PushPeriod: 17*time.Minute + 30*time.Second}
}

// Service runs the metadata protocol for one endsystem. The owning layer
// (core.Node) forwards leafset-change upcalls and protocol messages to it.
type Service struct {
	cfg  Config
	node *pastry.Node
	rng  *rand.Rand

	own      *Record
	store    map[ids.ID]*Record
	prevLeaf map[ids.ID]pastry.NodeRef
	ticker   simnet.Timer
	// sentGen is, per replica-set member, the generation of this
	// endsystem's record last sent to it in full (0: none this uptime).
	sentGen map[ids.ID]uint64
	// scratch is the reusable replica-set buffer for pushOwn.
	scratch []pastry.NodeRef

	// Observability handles, cached at construction (nil-safe no-ops when
	// disabled).
	o          *obs.Obs
	cPushes    *obs.Counter // meta_pushes
	cBeacons   *obs.Counter // meta_beacons
	cPulls     *obs.Counter // meta_pulls
	cRerepl    *obs.Counter // meta_rereplications
	cEvictions *obs.Counter // meta_evictions
	cDownMarks *obs.Counter // meta_down_marks
}

// NewService creates the service for a node. It becomes active on
// Activate (after the node joins the overlay).
func NewService(node *pastry.Node, cfg Config, seed int64) *Service {
	o := node.Ring().Obs()
	return &Service{
		cfg:      cfg,
		node:     node,
		rng:      rand.New(rand.NewSource(seed)),
		store:    make(map[ids.ID]*Record),
		prevLeaf: make(map[ids.ID]pastry.NodeRef),
		sentGen:  make(map[ids.ID]uint64),

		o:          o,
		cPushes:    o.Counter("meta_pushes"),
		cBeacons:   o.Counter("meta_beacons"),
		cPulls:     o.Counter("meta_pulls"),
		cRerepl:    o.Counter("meta_rereplications"),
		cEvictions: o.Counter("meta_evictions"),
		cDownMarks: o.Counter("meta_down_marks"),
	}
}

// SetLocalMetadata installs this endsystem's own summary and availability
// model under a new content generation. Call before Activate and whenever
// either changes materially; the next push carries the new record to
// every member in full. Until then the record keeps the last push's
// version, so a copy forwarded in between supersedes every copy of the
// previous generation.
func (s *Service) SetLocalMetadata(sum *relq.Summary, model *avail.Model) {
	gen := uint64(1)
	var ver time.Duration
	if s.own != nil {
		gen = s.own.Gen + 1
		ver = s.own.Version
	}
	s.own = &Record{
		Subject:  s.node.ID(),
		Version:  ver,
		Gen:      gen,
		Summary:  sum,
		Model:    model,
		Up:       true,
		WireSize: recordWireSize(sum),
	}
}

// Activate starts pushing: an immediate push (the (re)join push of §3.2.2)
// followed by periodic pushes at a randomized phase.
func (s *Service) Activate() {
	// Fresh uptime: assume nothing about what replicas still hold, so the
	// first push of each member is a full one.
	clear(s.sentGen)
	s.prevLeaf = make(map[ids.ID]pastry.NodeRef)
	for _, m := range s.node.Leafset() {
		s.prevLeaf[m.ID] = m
	}
	s.pushOwn()
	// Randomize the phase: first tick after U(0,period), then periodic.
	sched := s.node.Sched()
	first := time.Duration(s.rng.Int63n(int64(s.cfg.PushPeriod)))
	sched.After(first, func() {
		if !s.node.Alive() {
			return
		}
		s.pushOwn()
		s.ticker = sched.Every(s.cfg.PushPeriod, func() {
			if s.node.Alive() {
				s.pushOwn()
			}
		})
	})
}

// Deactivate stops periodic pushes (the endsystem went down). Stored
// records are retained: this models the persistence of replica state
// across the subject's downtime; a node that crashes and returns keeps its
// persisted store, per the paper's persistent replica-set state.
func (s *Service) Deactivate() {
	s.ticker.Cancel()
	s.ticker = simnet.Timer{}
}

// pushOwn replicates this endsystem's metadata to its replica set: in full
// to a member that has not been sent the current generation this uptime,
// as a beacon to every other one.
func (s *Service) pushOwn() {
	if s.own == nil {
		return
	}
	now := s.node.Sched().Now()
	rec := s.own.clone()
	rec.Version = now
	rec.Up = true
	s.own = rec
	if s.o.Detail() {
		s.o.EmitDetail(obs.Event{Kind: obs.KindMetaPush, EP: int(s.node.Endpoint())})
	}
	s.scratch = s.node.AppendReplicaSet(s.scratch[:0], K)
	for _, m := range s.scratch {
		s.cPushes.Inc()
		if s.sentGen[m.ID] == rec.Gen {
			s.cBeacons.Inc()
			s.send(m, rec, true)
		} else {
			s.sendOwn(m, rec)
		}
	}
}

// sendOwn sends this endsystem's record to a member in full and remembers
// the generation the member now holds.
func (s *Service) sendOwn(to pastry.NodeRef, rec *Record) {
	s.sentGen[to.ID] = rec.Gen
	s.send(to, rec, false)
}

func (s *Service) send(to pastry.NodeRef, rec *Record, beacon bool) {
	size := rec.WireSize
	if beacon {
		size = recordHeaderBytes
	}
	m := pushMsgPool.Get().(*pushMsg)
	m.Rec, m.From, m.Beacon = rec, s.node.Endpoint(), beacon
	s.node.Ring().Network().Send(s.node.Endpoint(), to.EP, size,
		simnet.ClassMaintenance, m)
}

// HandleMessage processes a protocol message; it reports whether the
// payload belonged to this service.
func (s *Service) HandleMessage(payload any) bool {
	switch m := payload.(type) {
	case *pushMsg:
		rec, from, beacon := m.Rec, m.From, m.Beacon
		*m = pushMsg{}
		pushMsgPool.Put(m)
		if beacon {
			s.refresh(rec, from)
		} else {
			s.insert(rec)
		}
	case *pullMsg:
		// Answered from whatever is current: a pull that crossed a change
		// gets the new generation.
		s.sendOwn(m.From, s.own)
	default:
		return false
	}
	return true
}

// refresh applies a beacon, the header of the subject's current record.
// A copy of the same generation is left exactly as the full push would
// have left it; a missing copy, or one of another generation, is pulled.
func (s *Service) refresh(hdr *Record, from simnet.Endpoint) {
	cur, ok := s.store[hdr.Subject]
	if ok && supersedes(cur, hdr) {
		return
	}
	if !ok || cur.Gen != hdr.Gen {
		s.cPulls.Inc()
		s.node.Ring().Network().Send(s.node.Endpoint(), from, pullBytes,
			simnet.ClassMaintenance, &pullMsg{From: s.node.Ref()})
		return
	}
	cur.Version, cur.Up, cur.DownSince = hdr.Version, true, 0
}

// supersedes reports whether a is a newer record of its subject than b: a
// later push, or a later generation of the same push.
func supersedes(a, b *Record) bool {
	return a.Version > b.Version || a.Version == b.Version && a.Gen > b.Gen
}

// insert merges a received record; the newer one wins (supersedes). A
// node never stores a record about itself: it is the source of that
// metadata, and a re-replicated copy would go stale the moment it rejoins
// (its own pushes go to its replica set, which excludes itself).
func (s *Service) insert(rec *Record) {
	if rec.Subject == s.node.ID() {
		return
	}
	cur, ok := s.store[rec.Subject]
	if ok && supersedes(cur, rec) {
		return
	}
	// A push from the subject itself means it is up; a re-replication
	// forward carries the sender's view, which we adopt only if newer.
	// The stored record is receiver-owned (Up/DownSince are mutated
	// locally), so an existing entry is overwritten in place rather than
	// reallocated: steady-state pushes from a stable neighborhood then
	// cost no allocation at all.
	if ok {
		*cur = *rec
	} else {
		s.store[rec.Subject] = rec.clone()
	}
}

// HandleLeafsetChanged reacts to overlay membership changes around this
// node: marking newly unavailable subjects down, forwarding records to
// members that just entered their replica sets, and evicting records this
// node no longer stands anywhere near.
func (s *Service) HandleLeafsetChanged() {
	now := s.node.Sched().Now()
	cur := make(map[ids.ID]pastry.NodeRef)
	for _, m := range s.node.Leafset() {
		cur[m.ID] = m
	}
	var added []pastry.NodeRef
	for id, ref := range cur {
		if _, ok := s.prevLeaf[id]; !ok {
			added = append(added, ref)
		}
	}
	slices.SortFunc(added, func(a, b pastry.NodeRef) int { return a.ID.Cmp(b.ID) })
	for id := range s.prevLeaf {
		if _, ok := cur[id]; !ok {
			// A neighbor left: if we replicate its metadata, note the time
			// we saw it go down (§3.2.1).
			if rec, ok := s.store[id]; ok && rec.Up {
				rec.Up = false
				rec.DownSince = now
				s.cDownMarks.Inc()
			}
		}
	}
	s.prevLeaf = cur

	if len(added) > 0 {
		for _, rec := range s.sortedRecords() {
			rs := s.localReplicaSet(rec.Subject, K)
			for _, a := range added {
				if _, in := rs[a.ID]; in {
					s.cRerepl.Inc()
					s.o.EmitDetail(obs.Event{Kind: obs.KindMetaRereplicate,
						EP: int(s.node.Endpoint())})
					// A snapshot: the stored record is marked down and
					// overwritten in place while the forward is in flight.
					s.send(a, rec.clone(), false)
				}
			}
		}
		if s.own != nil && s.node.Alive() {
			rs := s.localReplicaSet(s.own.Subject, K)
			for _, a := range added {
				if _, in := rs[a.ID]; in {
					s.sendOwn(a, s.own)
				}
			}
		}
	}

	// Eviction: drop records whose replica neighborhood has drifted far
	// from this node.
	for id := range s.store {
		if !s.withinLocalClosest(id, evictSlack*K) {
			delete(s.store, id)
			s.cEvictions.Inc()
		}
	}
}

// sortedRecords returns the stored records in subject-id order, keeping
// the simulation deterministic where iteration order would otherwise
// change message order between runs.
func (s *Service) sortedRecords() []*Record {
	out := make([]*Record, 0, len(s.store))
	for _, rec := range s.store {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject.Less(out[j].Subject) })
	return out
}

// localReplicaSet computes, from local knowledge (leafset ∪ self), the k
// nodes closest to subject.
func (s *Service) localReplicaSet(subject ids.ID, k int) map[ids.ID]pastry.NodeRef {
	cands := append(s.node.Leafset(), s.node.Ref())
	slices.SortFunc(cands, func(a, b pastry.NodeRef) int {
		return subject.AbsDistance(a.ID).Cmp(subject.AbsDistance(b.ID))
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make(map[ids.ID]pastry.NodeRef, len(cands))
	for _, c := range cands {
		out[c.ID] = c
	}
	return out
}

// withinLocalClosest reports whether this node is among the k locally
// closest nodes to subject.
func (s *Service) withinLocalClosest(subject ids.ID, k int) bool {
	_, in := s.localReplicaSet(subject, k)[s.node.ID()]
	return in
}

// Lookup returns the stored record for an endsystem, or nil.
func (s *Service) Lookup(id ids.ID) *Record { return s.store[id] }

// NumRecords returns the number of records stored (excluding own).
func (s *Service) NumRecords() int { return len(s.store) }

// UnavailableInRange returns the stored records of currently-down subjects
// whose ids fall in the inclusive namespace range [lo, hi]. The
// dissemination protocol calls this on the node responsible for a range to
// generate completeness predictors on behalf of unavailable endsystems.
// Records for subjects currently alive in this node's leafset are skipped:
// the leafset is fresher than a record whose rejoin push may not have
// arrived here.
func (s *Service) UnavailableInRange(lo, hi ids.ID) []*Record {
	var out []*Record
	for id, rec := range s.store {
		if rec.Up || !id.InRange(lo, hi) || id == s.node.ID() {
			continue
		}
		if _, live := s.prevLeaf[id]; live {
			continue
		}
		out = append(out, rec)
	}
	return out
}

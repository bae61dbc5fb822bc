package dissem

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/ids"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// testHost is a minimal Seaweed node for dissemination tests: a fixed local
// row count and a metadata service.
type testHost struct {
	node     *pastry.Node
	meta     *metadata.Service
	engine   *Engine
	rows     float64
	observed int
	// phantoms are records of unavailable endsystems this host reports on
	// top of what its metadata service holds, so that a test can put
	// bucket mass into predictors without killing anyone.
	phantoms []*metadata.Record
	// requested, when set, sees every range request delivered here before
	// the engine consumes it.
	requested func(h *testHost, from simnet.Endpoint, m *rangeMsg)
}

func (h *testHost) PastryNode() *pastry.Node              { return h.node }
func (h *testHost) EstimateOwnRows(q *relq.Query) float64 { return h.rows }
func (h *testHost) UnavailableInRange(lo, hi ids.ID) []*metadata.Record {
	out := h.meta.UnavailableInRange(lo, hi)
	for _, rec := range h.phantoms {
		if rec.Subject.InRange(lo, hi) {
			out = append(out, rec)
		}
	}
	return out
}
func (h *testHost) QueryObserved(qid ids.ID, q *relq.Query, injector simnet.Endpoint, cause uint64) {
	h.observed++
}

// Deliver dispatches to the engine first, then the metadata service.
func (h *testHost) Deliver(key ids.ID, from simnet.Endpoint, payload any) {
	if m, ok := payload.(*rangeMsg); ok && h.requested != nil {
		h.requested(h, from, m)
	}
	if h.engine.HandleMessage(from, payload) {
		return
	}
	h.meta.HandleMessage(payload)
}

func (h *testHost) LeafsetChanged() {
	if h.meta != nil {
		h.meta.HandleLeafsetChanged(h.node.LeafsetDelta())
	}
}

type cluster struct {
	sched *simnet.Wheel
	ring  *pastry.Ring
	hosts []*testHost
}

// newRing returns an empty n-endpoint overlay on a uniform 10 ms topology,
// with the metrics registry a cluster has by default.
func newRing(n int, seed int64) (*simnet.Wheel, *pastry.Ring) {
	sched := simnet.NewWheel()
	topo := simnet.UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	ncfg := simnet.DefaultNetworkConfig()
	ncfg.Seed = seed
	pcfg := pastry.DefaultConfig()
	pcfg.Seed = seed
	net := simnet.NewNetwork(sched, topo, n, ncfg)
	net.SetObs(obs.New())
	return sched, pastry.NewRing(net, pcfg)
}

func newCluster(t *testing.T, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	return newClusterWith(t, n, seed, func(*pastry.Ring, []ids.ID) Config { return cfg })
}

// newClusterWith is newCluster for a configuration that needs the ring or
// the endsystem ids (endpoint i has ids[i]) before it can be written.
func newClusterWith(t *testing.T, n int, seed int64, config func(*pastry.Ring, []ids.ID) Config) *cluster {
	t.Helper()
	c := &cluster{}
	c.sched, c.ring = newRing(n, seed)
	rng := rand.New(rand.NewSource(seed))
	idList := ids.RandomN(rng, n)
	cfg := config(c.ring, idList)
	c.hosts = make([]*testHost, n)
	eps := make([]simnet.Endpoint, n)
	for i := 0; i < n; i++ {
		h := &testHost{rows: float64(i + 1)}
		c.hosts[i] = h
		h.node = c.ring.AddNode(simnet.Endpoint(i), idList[i], h)
		h.meta = metadata.NewService(h.node, metadata.DefaultConfig(), seed+int64(i))
		h.meta.SetLocalMetadata(rowSummary(t, i+1), periodicModel())
		h.engine = NewEngine(h, cfg)
		eps[i] = simnet.Endpoint(i)
	}
	c.ring.BootstrapAll(eps)
	for _, h := range c.hosts {
		h.meta.Activate()
	}
	return c
}

// rowSummary builds a summary whose estimate for the test query is exactly
// rows (a single indexed column where every row matches Bytes >= 0).
func rowSummary(t *testing.T, rows int) *relq.Summary {
	t.Helper()
	tbl := relq.NewTable(relq.Schema{
		Name:    "Flow",
		Columns: []relq.Column{{Name: "Bytes", Type: relq.TInt, Indexed: true}},
	})
	for r := 0; r < rows; r++ {
		tbl.Insert(int64(r))
	}
	return tbl.BuildSummary()
}

func periodicModel() *avail.Model {
	m := &avail.Model{}
	for d := 0; d < 10; d++ {
		m.ObserveUpEvent(time.Duration(d)*avail.Day+8*time.Hour, 14*time.Hour)
	}
	return m
}

var testQuery = relq.MustParse("SELECT COUNT(*) FROM Flow WHERE Bytes >= 0")

func TestPredictorAllLive(t *testing.T) {
	n := 64
	c := newCluster(t, n, 1, DefaultConfig())
	c.sched.RunUntil(time.Minute)

	var got *predictor.Predictor
	injectAt := c.sched.Now()
	c.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	c.sched.RunUntil(injectAt + 2*time.Minute)
	if got == nil {
		t.Fatal("no predictor arrived")
	}
	// All nodes live: total rows = 1+2+...+n, all immediate.
	want := float64(n * (n + 1) / 2)
	if math.Abs(got.ExpectedTotal()-want) > 0.5 {
		t.Fatalf("predictor total = %v, want %v", got.ExpectedTotal(), want)
	}
	if math.Abs(got.Immediate-want) > 0.5 {
		t.Fatalf("immediate = %v, want all rows immediate", got.Immediate)
	}
}

// TestEveryNodeObservesQueryAtLeastOnce: the engine reports the query to
// its host with every range task it begins, so every endsystem hears of
// it; once-per-uptime execution is the host's guard (internal/core,
// TestQueryExecutesOncePerUptime).
func TestEveryNodeObservesQueryAtLeastOnce(t *testing.T) {
	n := 96
	c := newCluster(t, n, 2, DefaultConfig())
	c.sched.RunUntil(time.Minute)
	c.hosts[5].engine.Inject(testQuery, 0, func(*predictor.Predictor) {})
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	for i, h := range c.hosts {
		if h.observed < 1 {
			t.Fatalf("node %d never observed the query", i)
		}
	}
}

// TestEmptySubrangesAnsweredInPlace: a range task answers, in its fan-out
// slot, each subrange that is empty by its leafset and whose first target
// it roots itself, and routes every other one. On a quiet 200-endsystem
// cluster at arity 16, no range request comes back to its sender by a
// 0-hop route for a range the sender's leafset shows empty, every
// non-local subrange of every interior task is either answered in place
// (never requested) or requested exactly once, dissem_range_msgs counts
// the requested ones, and the predictor still counts every row once.
func TestEmptySubrangesAnsweredInPlace(t *testing.T) {
	const n = 200
	c := newCluster(t, n, 23, DefaultConfig())
	c.sched.RunUntil(time.Minute)
	type request struct {
		from   simnet.Endpoint
		lo, hi ids.ID
	}
	delivered := make(map[request]int)
	for _, h := range c.hosts {
		h.requested = func(h *testHost, from simnet.Endpoint, m *rangeMsg) {
			delivered[request{from, m.Lo, m.Hi}]++
			if from == h.node.Endpoint() && h.engine.aloneInRange(m.Lo, m.Hi) &&
				find(h.engine.queries[m.Hdr.QueryID].list(), m.Lo, m.Hi) == nil {
				t.Errorf("endsystem %d routed [%v, %v] to itself, empty by its leafset", from, m.Lo, m.Hi)
			}
		}
	}
	var got *predictor.Predictor
	qid := c.hosts[7].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	c.sched.RunUntil(c.sched.Now() + 30*time.Second) // inside every task's retention
	if got == nil {
		t.Fatal("no predictor")
	}
	if want := float64(n * (n + 1) / 2); got.Immediate != want || got.ExpectedTotal() != want {
		t.Fatalf("predictor %v immediate, %v expected; want %v rows, each once", got.Immediate, got.ExpectedTotal(), want)
	}
	o := c.ring.Obs()
	if r := o.Counter("dissem_reissues").Value(); r != 0 {
		t.Fatalf("%d reissues on a quiet cluster", r)
	}

	// Replay every interior task's split from the filed tasks.
	inPlace, routed := 0, 0
	for _, h := range c.hosts {
		e, self := h.engine, h.node.Endpoint()
		for _, tk := range e.queries[qid].list() {
			if tk.key.lo == tk.key.hi || e.aloneInRange(tk.key.lo, tk.key.hi) {
				continue // a leaf
			}
			for _, s := range splitRange(tk.key.lo, tk.key.hi, e.cfg.Arity) {
				if h.node.ID().InRange(s.lo, s.hi) {
					continue // local recursion
				}
				asked := delivered[request{self, s.lo, s.hi}]
				leaf := s.lo == s.hi || e.aloneInRange(s.lo, s.hi)
				if leaf && h.node.IsRootOf(ids.Midpoint(s.lo, s.hi)) {
					inPlace++
					if asked != 0 || find(e.queries[qid].list(), s.lo, s.hi) != nil {
						t.Errorf("endsystem %d: [%v, %v] answered in place, yet requested %d times or filed", self, s.lo, s.hi, asked)
					}
					continue
				}
				routed++
				if asked != 1 {
					t.Errorf("endsystem %d: [%v, %v] requested %d times, want once", self, s.lo, s.hi, asked)
				}
			}
		}
	}
	msgs := int(o.Counter("dissem_range_msgs").Value())
	t.Logf("%d subranges answered in place, %d routed (%d range messages)", inPlace, routed, msgs)
	if inPlace == 0 {
		t.Fatal("no subrange was answered in place")
	}
	if msgs != routed || msgs != len(delivered) {
		t.Fatalf("dissem_range_msgs = %d, %d subranges routed, %d distinct requests delivered", msgs, routed, len(delivered))
	}
}

func TestPredictorLatencySeconds(t *testing.T) {
	c := newCluster(t, 128, 3, DefaultConfig())
	c.sched.RunUntil(time.Minute)
	injectAt := c.sched.Now()
	var arrived time.Duration
	c.hosts[0].engine.Inject(testQuery, 0, func(*predictor.Predictor) { arrived = c.sched.Now() })
	c.sched.RunUntil(injectAt + time.Minute)
	if arrived == 0 {
		t.Fatal("no predictor")
	}
	lat := arrived - injectAt
	// The paper reports 3.1s at 2,000 endsystems; at 128 nodes with a
	// 10ms-RTT topology, the predictor should arrive within a few seconds.
	if lat > 10*time.Second {
		t.Fatalf("predictor latency %v too high", lat)
	}
}

func TestPredictorCoversUnavailableEndsystems(t *testing.T) {
	n := 64
	c := newCluster(t, n, 4, DefaultConfig())
	c.sched.RunUntil(time.Minute)

	// Kill 10 nodes; wait for the metadata layer to mark them down.
	rng := rand.New(rand.NewSource(7))
	dead := map[int]bool{}
	for len(dead) < 10 {
		i := rng.Intn(n)
		if i == 0 || dead[i] {
			continue
		}
		dead[i] = true
		c.hosts[i].meta.Deactivate()
		c.hosts[i].node.Stop()
	}
	c.sched.RunUntil(c.sched.Now() + 10*time.Minute)

	var got *predictor.Predictor
	c.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	if got == nil {
		t.Fatal("no predictor")
	}
	var liveRows, deadRows float64
	for i, h := range c.hosts {
		if dead[i] {
			deadRows += h.rows
		} else {
			liveRows += h.rows
		}
	}
	if math.Abs(got.Immediate-liveRows) > 0.5 {
		t.Fatalf("immediate = %v, want %v (live rows)", got.Immediate, liveRows)
	}
	// Dead endsystems' rows come from replicated summaries; nearly all
	// should be covered (allowing a straggler whose metadata was missed).
	future := got.ExpectedTotal() - got.Immediate
	if future < deadRows*0.8 {
		t.Fatalf("future rows = %v, want ≈%v from unavailable endsystems", future, deadRows)
	}
	if future > deadRows*1.2 {
		t.Fatalf("future rows = %v exceed dead rows %v (double counting?)", future, deadRows)
	}
}

func TestBinaryArity(t *testing.T) {
	n := 48
	c := newCluster(t, n, 5, Config{Arity: 2})
	c.sched.RunUntil(time.Minute)
	var got *predictor.Predictor
	c.hosts[1].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	c.sched.RunUntil(c.sched.Now() + 5*time.Minute)
	if got == nil {
		t.Fatal("no predictor with binary tree")
	}
	want := float64(n * (n + 1) / 2)
	if math.Abs(got.ExpectedTotal()-want) > 0.5 {
		t.Fatalf("binary-tree total = %v, want %v", got.ExpectedTotal(), want)
	}
}

func TestChurnDuringDissemination(t *testing.T) {
	// Nodes die while the query disseminates; the predictor must still
	// arrive and cover a sane total (no double counting).
	n := 96
	c := newCluster(t, n, 6, DefaultConfig())
	c.sched.RunUntil(time.Minute)
	rng := rand.New(rand.NewSource(8))
	injectAt := c.sched.Now()
	var got *predictor.Predictor
	c.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	// Kill 5 random nodes within the dissemination window.
	for i := 0; i < 5; i++ {
		victim := 1 + rng.Intn(n-1)
		at := injectAt + time.Duration(rng.Int63n(int64(2*time.Second)))
		c.sched.At(at, func() {
			if c.hosts[victim].node.Alive() {
				c.hosts[victim].meta.Deactivate()
				c.hosts[victim].node.Stop()
			}
		})
	}
	c.sched.RunUntil(injectAt + 5*time.Minute)
	if got == nil {
		t.Fatal("predictor lost under churn")
	}
	want := float64(n * (n + 1) / 2)
	// Some contributions may be missing (nodes died mid-protocol) but the
	// total must never exceed the true total by more than rounding, and
	// should cover the vast majority of it.
	if got.ExpectedTotal() > want*1.05 {
		t.Fatalf("total %v exceeds true rows %v: double counting", got.ExpectedTotal(), want)
	}
	if got.ExpectedTotal() < want*0.7 {
		t.Fatalf("total %v far below true rows %v", got.ExpectedTotal(), want)
	}
}

func TestDivByUintMatchesBigInt(t *testing.T) {
	f := func(hi, lo uint64, byRaw uint8) bool {
		by := uint64(byRaw)%100 + 1
		v := ids.ID{Hi: hi, Lo: lo}
		got := divByUint(v, by)
		b := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		b.Add(b, new(big.Int).SetUint64(lo))
		b.Div(b, new(big.Int).SetUint64(by))
		wantHi := new(big.Int).Rsh(b, 64).Uint64()
		wantLo := new(big.Int).And(b, new(big.Int).SetUint64(^uint64(0))).Uint64()
		return got.Hi == wantHi && got.Lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryIDDistinctPerInjection(t *testing.T) {
	a := QueryID(testQuery, time.Second)
	b := QueryID(testQuery, 2*time.Second)
	if a == b {
		t.Fatal("same query at different times must get different queryIds")
	}
	if QueryID(testQuery, time.Second) != a {
		t.Fatal("queryId not deterministic")
	}
}

// TestSingleNodeQuery: on a one-endsystem cluster the root task is a leaf.
// The injector is handed a predictor either way — also when the leaf has
// nothing to report, where any other task would answer nil.
func TestSingleNodeQuery(t *testing.T) {
	for _, rows := range []float64{1, 0} {
		c := newCluster(t, 1, 9, DefaultConfig())
		c.hosts[0].rows = rows
		c.sched.RunUntil(time.Second)
		var got *predictor.Predictor
		calls := 0
		c.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p; calls++ })
		c.sched.RunUntil(c.sched.Now() + time.Minute)
		if calls != 1 || got == nil {
			t.Fatalf("%v rows: callback ran %d times, predictor %p", rows, calls, got)
		}
		if got.ExpectedTotal() != rows || got.Immediate != rows {
			t.Fatalf("%v rows: total = %v, immediate = %v", rows, got.ExpectedTotal(), got.Immediate)
		}
	}
}

// TestScopedQueryPrunesToInjector runs an RTT-scoped query whose radius
// admits the injector alone (an untrained coordinate space puts everyone
// 200 µs from everyone else): every subrange but the one holding the
// injector is pruned at every level, the other endsystems on the path
// report nothing, and the predictor that comes back is the injector's rows
// exactly.
func TestScopedQueryPrunesToInjector(t *testing.T) {
	n := 64
	c := newClusterWith(t, n, 12, func(ring *pastry.Ring, idList []ids.ID) Config {
		sp := coords.NewSpace(ring.Network(), coords.Enabled())
		sp.SetIDs(idList)
		ring.SetCoords(sp)
		return DefaultConfig()
	})
	c.sched.RunUntil(time.Minute)
	q := testQuery.Clone()
	q.RTTScope = time.Nanosecond
	for _, injector := range []int{0, 17, n - 1} {
		var got *predictor.Predictor
		c.hosts[injector].engine.Inject(q, 0, func(p *predictor.Predictor) { got = p })
		c.sched.RunUntil(c.sched.Now() + time.Minute)
		if got == nil {
			t.Fatalf("injector %d: no predictor", injector)
		}
		if want := c.hosts[injector].rows; got.ExpectedTotal() != want || got.Immediate != want {
			t.Fatalf("injector %d: total = %v, immediate = %v, want its own %v rows",
				injector, got.ExpectedTotal(), got.Immediate, want)
		}
	}
}

// sendLedger is the accounting test's view of the wire. As the network's
// fault hook it sees every send, just after the sender was charged, and
// reads what was charged off the class's byte total; bound in front of
// every endsystem's handler it sees every payload delivered. A message
// from a to b sent at t arrives at t + Delay(a, b), and same-instant
// deliveries fire in send order, so the two views pair up exactly.
type sendLedger struct {
	c        *cluster
	charged  [simnet.NumClasses]float64 // class byte totals at the last send
	inFlight map[flight][]sent
}

type flight struct {
	from, to simnet.Endpoint
	at       time.Duration
}

type sent struct {
	class simnet.Class
	size  int
}

func (l *sendLedger) OnSend(from, to simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	net := l.c.ring.Network()
	total := net.Stats().TotalTx(class)
	k := flight{from, to, l.c.sched.Now() + net.Delay(from, to)}
	l.inFlight[k] = append(l.inFlight[k], sent{class, int(total - l.charged[class])})
	l.charged[class] = total
	return simnet.Fate{}
}

// arrived returns what the sender was charged for the message now being
// delivered; ok is false for a message sent before the ledger was attached.
func (l *sendLedger) arrived(from, to simnet.Endpoint) (s sent, ok bool) {
	k := flight{from, to, l.c.sched.Now()}
	q := l.inFlight[k]
	if len(q) == 0 {
		return sent{}, false
	}
	l.inFlight[k] = q[1:]
	return q[0], true
}

// TestPredictorBytesCharged is the differential oracle for the response
// accounting: over one query on a small cluster, every message that
// carried a predictor was charged its header plus exactly
// len(AppendEncode) of the predictor it carried, in each of the shapes the
// wire format distinguishes, and the dissem_resps* counters say the same.
func TestPredictorBytesCharged(t *testing.T) {
	n := 48
	c := newCluster(t, n, 13, DefaultConfig())
	o := c.ring.Obs()
	c.sched.RunUntil(time.Minute)

	// Most endsystems expect no matching row (empty responses); some hold
	// rows (Immediate only); phantom unavailable endsystems put mass in the
	// buckets: a morning machine a few, one never observed every one.
	rng := rand.New(rand.NewSource(13))
	for i, h := range c.hosts {
		if i%3 != 0 {
			h.rows = 0
		}
		if i%8 == 0 {
			model := periodicModel()
			if i%16 == 0 {
				model = &avail.Model{}
			}
			rec := &metadata.Record{Subject: ids.Random(rng), Summary: rowSummary(t, 5+i),
				Model: model, DownSince: c.sched.Now() - time.Hour}
			for _, all := range c.hosts {
				all.phantoms = append(all.phantoms, rec)
			}
		}
	}

	l := &sendLedger{c: c, inFlight: map[flight][]sent{}}
	net := c.ring.Network()
	for class := range l.charged {
		l.charged[class] = net.Stats().TotalTx(simnet.Class(class))
	}
	net.SetFaultHook(l)
	var msgs, empty, immediateOnly, dense int
	var predBytes uint64
	for _, h := range c.hosts {
		ep, node := h.node.Endpoint(), h.node
		net.Bind(ep, simnet.HandlerFunc(func(from simnet.Endpoint, payload any) {
			s, paired := l.arrived(from, ep)
			// A response is the finished task: the root's, to the injector,
			// carries the query id alone, any other the range too.
			if m, ok := payload.(*task); ok {
				pred, header := &m.acc, 3*ids.Bytes
				if m.key.whole() {
					header = ids.Bytes
				}
				enc := pred.AppendEncode(nil)
				if !paired || s.class != simnet.ClassQuery || s.size != header+len(enc) {
					t.Errorf("response %v from %d to %d: charged %+v (paired %v), carried %d header + %d predictor bytes",
						m.key, from, ep, s, paired, header, len(enc))
				}
				msgs++
				predBytes += uint64(len(enc))
				switch {
				case len(enc) == 1:
					empty++
				case pred.Equal(&predictor.Predictor{Immediate: pred.Immediate}):
					immediateOnly++
				case len(enc) == predictor.MaxEncodedLen:
					dense++
				}
			}
			node.HandleMessage(from, payload)
		}))
	}

	var got *predictor.Predictor
	c.hosts[0].engine.Inject(testQuery, 0, func(p *predictor.Predictor) { got = p })
	c.sched.RunUntil(c.sched.Now() + 2*time.Minute)
	if got == nil {
		t.Fatal("no predictor arrived")
	}
	t.Logf("%d predictor-carrying messages: %d empty, %d Immediate-only, %d dense; %d predictor bytes",
		msgs, empty, immediateOnly, dense, predBytes)
	if empty == 0 || immediateOnly == 0 || dense == 0 || empty+immediateOnly+dense == msgs {
		t.Errorf("the query did not exercise every shape: %d empty, %d Immediate-only, %d dense, %d other",
			empty, immediateOnly, dense, msgs-empty-immediateOnly-dense)
	}
	for name, want := range map[string]uint64{
		"dissem_resps": uint64(msgs), "dissem_resps_empty": uint64(empty), "dissem_predictor_bytes": predBytes,
	} {
		if got := o.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// send is one message the network was handed: when, between whom, and of
// which class.
type send struct {
	at       time.Duration
	from, to simnet.Endpoint
	class    simnet.Class
}

// sendLog is a fault hook that records every send and drops none.
type sendLog struct {
	now   func() time.Duration
	sends []send
}

func (l *sendLog) OnSend(from, to simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	l.sends = append(l.sends, send{l.now(), from, to, class})
	return simnet.Fate{}
}

// TestReissueStreamSeededOnFirstUse: an engine holds no generator until a
// reissue draws from it, and the stream it then seeds is the one an
// eagerly seeded engine draws — the same churn run sends the same
// messages between the same endsystems at the same instants either way,
// so every reissue timeout and retarget matches.
func TestReissueStreamSeededOnFirstUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	run := func(eager bool) ([]send, int) {
		const n = 96
		c := newCluster(t, n, 6, cfg)
		c.sched.RunUntil(time.Minute)
		for i, h := range c.hosts {
			if h.engine.rng != nil {
				t.Fatalf("engine %d holds a generator before any reissue", i)
			}
			if eager {
				h.engine.rng = rand.New(rand.NewSource(cfg.Seed))
			}
		}
		log := &sendLog{now: c.sched.Now}
		c.ring.Network().SetFaultHook(log)
		rng := rand.New(rand.NewSource(8))
		injectAt := c.sched.Now()
		c.hosts[0].engine.Inject(testQuery, 0, func(*predictor.Predictor) {})
		// Victims die while the range messages are in flight, so parents
		// time out on them and reissue.
		for i := 0; i < 10; i++ {
			victim := 1 + rng.Intn(n-1)
			at := injectAt + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
			c.sched.At(at, func() {
				if c.hosts[victim].node.Alive() {
					c.hosts[victim].meta.Deactivate()
					c.hosts[victim].node.Stop()
				}
			})
		}
		c.sched.RunUntil(injectAt + 5*time.Minute)
		if r := c.ring.Obs().Counter("dissem_reissues").Value(); r == 0 {
			t.Fatal("the churn run reissued nothing")
		}
		seeded := 0
		for _, h := range c.hosts {
			if h.engine.rng != nil {
				seeded++
			}
		}
		return log.sends, seeded
	}
	lazy, seeded := run(false)
	eager, _ := run(true)
	t.Logf("%d sends; %d of 96 engines seeded a generator", len(lazy), seeded)
	if seeded == 0 || seeded == 96 {
		t.Errorf("%d of 96 engines seeded a generator: want the reissuers only", seeded)
	}
	if !slices.Equal(lazy, eager) {
		t.Errorf("lazily and eagerly seeded engines sent %d and %d messages, or sent them differently",
			len(lazy), len(eager))
	}
}

// TestNoGeneratorRetained is the retained-size tooth of both per-endsystem
// random streams: a built metadata service and a built engine each retain
// under 1 KB, so neither holds a seeded math/rand source (4.9 KB).
func TestNoGeneratorRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count toward HeapAlloc")
	}
	const n = 256
	_, ring := newRing(n, 1)
	hosts := make([]*testHost, n)
	for i, id := range ids.RandomN(rand.New(rand.NewSource(1)), n) {
		hosts[i] = &testHost{}
		hosts[i].node = ring.AddNode(simnet.Endpoint(i), id, hosts[i])
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	for i, h := range hosts {
		h.meta = metadata.NewService(h.node, metadata.DefaultConfig(), int64(i))
	}
	mid := liveHeap()
	for i, h := range hosts {
		h.engine = NewEngine(h, Config{Arity: 16, Seed: int64(i)})
	}
	after := liveHeap()
	runtime.KeepAlive(hosts)
	perService, perEngine := (mid-before)/n, (after-mid)/n
	t.Logf("a metadata service retains %d bytes, an engine %d", perService, perEngine)
	if perService >= 1<<10 || perEngine >= 1<<10 {
		t.Errorf("a metadata service retains %d bytes and an engine %d, ceiling 1 KB each", perService, perEngine)
	}
}

// dropFrom is a fault hook that drops every query-class message one
// endpoint sends and counts them.
type dropFrom struct {
	ep      simnet.Endpoint
	now     func() time.Duration
	dropped []time.Duration
}

func (d *dropFrom) OnSend(from, _ simnet.Endpoint, _, _ int, class simnet.Class) simnet.Fate {
	if from != d.ep || class != simnet.ClassQuery {
		return simnet.Fate{}
	}
	d.dropped = append(d.dropped, d.now())
	return simnet.Fate{Drop: true}
}

// TestInjectorGiveUp pins when an injector whose start message never
// arrives gives up: at the timeout of its 2×maxRetries-th retransmission,
// one draw per retransmission from the reissue stream after it, with no
// send at that instant — the rule the subranges follow (subrangeTimeout).
func TestInjectorGiveUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	c := newCluster(t, 16, 4, cfg)
	c.sched.RunUntil(time.Minute)
	start := c.sched.Now()
	qid := QueryID(testQuery, start)
	injector := 0
	for root, _ := c.ring.Root(qid); c.hosts[injector].node.Endpoint() == root.EP; injector++ {
	}
	hook := &dropFrom{ep: c.hosts[injector].node.Endpoint(), now: c.sched.Now}
	c.ring.Network().SetFaultHook(hook)
	e := c.hosts[injector].engine
	if got := e.Inject(testQuery, 0, func(*predictor.Predictor) { t.Fatal("a predictor arrived") }); got != qid {
		t.Fatal("the query id moved")
	}
	_, b := Schedules(false)
	ref := rand.New(rand.NewSource(cfg.Seed))
	at, timeout := start, b.First
	for n := 0; n < b.Budget; n++ {
		at += timeout
		timeout = b.Next(timeout, func() *rand.Rand { return ref })
	}
	at += timeout // the last retransmission's timeout runs out
	giveups := c.ring.Obs().Counter("dissem_giveups")
	c.sched.RunUntil(at - 1)
	if len(hook.dropped) != b.Budget+1 || giveups.Value() != 0 {
		t.Fatalf("before the last timeout ran out: %d start messages and %d give-ups, want %d and none",
			len(hook.dropped), giveups.Value(), b.Budget+1)
	}
	c.sched.RunUntil(at)
	if len(hook.dropped) != b.Budget+1 || giveups.Value() != 1 {
		t.Fatalf("when the last timeout ran out: %d start messages and %d give-ups, want %d and one",
			len(hook.dropped), giveups.Value(), b.Budget+1)
	}
	c.sched.RunUntil(start + time.Hour)
	if len(hook.dropped) != b.Budget+1 || giveups.Value() != 1 {
		t.Fatalf("start messages sent at %v and %d give-ups, want %d and one", hook.dropped,
			giveups.Value(), b.Budget+1)
	}
	if e.rng.Float64() != ref.Float64() {
		t.Error("the injector drew other than once per retransmission")
	}
	if _, armed := e.waiting[qid].retry.When(); armed {
		t.Error("a timeout is still armed after the give-up")
	}
}

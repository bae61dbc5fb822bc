package dissem

import (
	"math"
	"math/big"
	"math/rand"
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
	if h.engine.HandleMessage(from, payload) {
		return
	}
	h.meta.HandleMessage(payload)
}

func (h *testHost) LeafsetChanged() {
	if h.meta != nil {
		h.meta.HandleLeafsetChanged()
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
	return relq.NewSummary(tbl)
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
	c := newCluster(t, n, 5, Config{Arity: 2, MaxRetries: 3})
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

func TestSplitRangeProperties(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64, arityRaw uint8) bool {
		lo := ids.ID{Hi: aHi, Lo: aLo}
		hi := ids.ID{Hi: bHi, Lo: bLo}
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		arity := 2 + int(arityRaw%15)
		subs := splitRange(lo, hi, arity)
		if len(subs) == 0 || len(subs) > arity {
			return false
		}
		// Exact disjoint cover.
		if subs[0].lo != lo || subs[len(subs)-1].hi != hi {
			return false
		}
		for i, s := range subs {
			if s.hi.Less(s.lo) {
				return false
			}
			if i > 0 && s.lo != subs[i-1].hi.AddUint64(1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
		cfg := DefaultConfig()
		cfg.Coords = coords.NewSpace(ring.Network(), coords.Enabled())
		cfg.Coords.SetIDs(idList)
		return cfg
	})
	c.sched.RunUntil(time.Minute)
	q := *testQuery
	q.RTTScope = time.Nanosecond
	for _, injector := range []int{0, 17, n - 1} {
		var got *predictor.Predictor
		c.hosts[injector].engine.Inject(&q, 0, func(p *predictor.Predictor) { got = p })
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
			s, ok := l.arrived(from, ep)
			var pred *predictor.Predictor
			header := 0
			switch m := payload.(type) {
			case *rangeResp:
				pred, header = m.Pred, 3*ids.Bytes
			case *predictorMsg:
				pred, header = m.Pred, ids.Bytes
			}
			if header != 0 {
				enc := pred.AppendEncode(nil)
				if !ok || s.class != simnet.ClassQuery || s.size != header+len(enc) {
					t.Errorf("%T from %d to %d: charged %+v (paired %v), carried %d header + %d predictor bytes",
						payload, from, ep, s, ok, header, len(enc))
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

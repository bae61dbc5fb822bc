package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/aggtree"
	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/dissem"
	"repro/internal/histogram"
	"repro/internal/ids"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/pastry"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// driverRuns is how many times each layer driver runs on the same seeded
// inputs; the median of each metric is reported.
const driverRuns = 5

// A layer driver exercises one layer through its exported functions only
// and returns that layer's metrics for one run.
type layerDriver struct {
	name string
	run  func(seed int64, quick bool) (map[string]float64, error)
}

var layerDrivers = []layerDriver{
	{"ids", driveIDs},
	{"simnet.wheel", driveWheel},
	{"simnet.send", driveSend},
	{"pastry", drivePastry},
	{"metadata", driveMetadata},
	{"dissem", driveDissem},
	{"aggtree", driveAggtree},
	{"agg", driveAgg},
	{"relq", driveRelq},
	{"histogram", driveHistogram},
	{"predictor", drivePredictor},
	{"avail", driveAvail},
	{"anemone", driveAnemone},
	{"coords", driveCoords},
	{"obs", driveObs},
}

// runDrivers runs every layer driver driverRuns times and returns the
// median of each metric, with one span per driver's batch of calls. A
// driver whose layer did not do what was asked of it (a message not
// delivered, a join not completed) is a failed operation.
func runDrivers(seed int64, quick bool, rec *spanRecorder) (out map[string]float64, failures []string) {
	out = map[string]float64{}
	for _, d := range layerDrivers {
		end := rec.start("driver."+d.name, "")
		runs := map[string][]float64{}
		for i := 0; i < driverRuns; i++ {
			m, err := d.run(seed, quick)
			if err != nil {
				failures = append(failures, fmt.Sprintf("driver %s: %v", d.name, err))
				break
			}
			for k, v := range m {
				runs[k] = append(runs[k], v)
			}
		}
		end()
		for k, v := range runs {
			out[k] = median(v)
		}
	}
	return out, failures
}

// stopwatch times the measured part of a driver run, with the heap
// allocations made in it.
type stopwatch struct {
	ns      float64
	mallocs float64
	t0      time.Time
	m0      uint64
}

func (s *stopwatch) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.m0 = ms.Mallocs
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.ns += float64(time.Since(s.t0).Nanoseconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs += float64(ms.Mallocs - s.m0)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

func scaled(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

func driveIDs(seed int64, quick bool) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	idList := ids.RandomN(rng, 1024)
	n := scaled(quick, 400000, 20000)
	var sw stopwatch
	sw.start()
	var acc int
	for i := 0; i < n; i++ {
		a, b := idList[i&1023], idList[(i*7+1)&1023]
		acc += ids.CommonPrefixLen(a, b, 4) + ids.CommonSuffixLen(a, b, 4)
		acc += int(a.Distance(b).Lo & 1)
		acc += int(aggtree.V(a, b, 4).Lo & 1)
	}
	sw.stop()
	sink += uint64(acc)
	return map[string]float64{"ids.op_ns": sw.ns / float64(4*n)}, nil
}

func driveWheel(seed int64, quick bool) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(quick, 300000, 50000)
	// Log-uniform from 1 ms to 6 h: the near timers land in the wheel's
	// slots, the far ones in its overflow heap.
	delays := make([]time.Duration, n)
	span := math.Log(float64(6*time.Hour) / float64(time.Millisecond))
	for i := range delays {
		delays[i] = time.Duration(float64(time.Millisecond) * math.Exp(rng.Float64()*span))
	}
	fired := 0
	fn := func() { fired++ }
	w := simnet.NewWheel()
	var sw stopwatch
	sw.start()
	for _, d := range delays {
		w.After(d, fn)
	}
	w.Run()
	sw.stop()
	if fired != n {
		return nil, fmt.Errorf("fired %d of %d timers", fired, n)
	}
	return map[string]float64{
		"simnet.wheel_ns_per_event":     sw.ns / float64(n),
		"simnet.wheel_allocs_per_event": sw.mallocs / float64(n),
	}, nil
}

// newNet builds a network of n endpoints on the CorpNet-like topology
// with metrics on, as a cluster has them.
func newNet(n int, seed int64) (*simnet.Wheel, *simnet.Network, *obs.Obs) {
	topo := simnet.GenerateTopology(simnet.DefaultTopologyConfig(), seed)
	w := simnet.NewWheel()
	cfg := simnet.DefaultNetworkConfig()
	cfg.Horizon = 24 * time.Hour
	cfg.Seed = seed
	net := simnet.NewNetwork(w, topo, n, cfg)
	o := obs.New()
	o.BindClock(w.Now)
	net.SetObs(o)
	return w, net, o
}

func driveSend(seed int64, quick bool) (map[string]float64, error) {
	const endpoints = 1000
	w, net, _ := newNet(endpoints, seed)
	got := 0
	h := simnet.HandlerFunc(func(simnet.Endpoint, any) { got++ })
	for ep := 0; ep < endpoints; ep++ {
		net.Bind(simnet.Endpoint(ep), h)
	}
	rng := rand.New(rand.NewSource(seed))
	n := scaled(quick, 150000, 20000)
	pairs := make([][2]simnet.Endpoint, n)
	for i := range pairs {
		pairs[i] = [2]simnet.Endpoint{simnet.Endpoint(rng.Intn(endpoints)), simnet.Endpoint(rng.Intn(endpoints))}
	}
	payload := &struct{}{}
	var sw stopwatch
	sw.start()
	for _, p := range pairs {
		net.Send(p[0], p[1], 100, simnet.ClassQuery, payload)
	}
	w.Run()
	sw.stop()
	if got != n {
		return nil, fmt.Errorf("delivered %d of %d messages", got, n)
	}
	return map[string]float64{
		"simnet.send_ns_per_msg":     sw.ns / float64(n),
		"simnet.send_allocs_per_msg": sw.mallocs / float64(n),
	}, nil
}

// stubApp is a layer driver's stand-in for core.Node: a pastry
// Application that is also the Host of whichever engine the driver
// wires to it.
type stubApp struct {
	pn      *pastry.Node
	deliver func(from simnet.Endpoint, payload any)
	results int
}

func (a *stubApp) Deliver(_ ids.ID, from simnet.Endpoint, payload any) {
	if a.deliver != nil {
		a.deliver(from, payload)
	}
}
func (a *stubApp) LeafsetChanged()                                            {}
func (a *stubApp) PastryNode() *pastry.Node                                   { return a.pn }
func (a *stubApp) EstimateOwnRows(*relq.Query) float64                        { return 10 }
func (a *stubApp) UnavailableInRange(lo, hi ids.ID) []*metadata.Record        { return nil }
func (a *stubApp) QueryObserved(ids.ID, *relq.Query, simnet.Endpoint, uint64) {}
func (a *stubApp) ResultDelivered(ids.ID, agg.Partial, int64, uint64)         { a.results++ }

// overlay is a static ring of stub applications, all bootstrapped at t=0.
type overlay struct {
	w    *simnet.Wheel
	net  *simnet.Network
	o    *obs.Obs
	apps []*stubApp
}

func newOverlay(n int, seed int64) *overlay {
	w, net, o := newNet(n, seed)
	pcfg := pastry.DefaultConfig()
	pcfg.Seed = seed
	ring := pastry.NewRing(net, pcfg)
	idList := ids.RandomN(rand.New(rand.NewSource(seed)), n)
	ov := &overlay{w: w, net: net, o: o, apps: make([]*stubApp, n)}
	eps := make([]simnet.Endpoint, n)
	for i := range ov.apps {
		a := &stubApp{}
		a.pn = ring.AddNode(simnet.Endpoint(i), idList[i], a)
		ov.apps[i] = a
		eps[i] = simnet.Endpoint(i)
	}
	ring.BootstrapAll(eps)
	return ov
}

func drivePastry(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 2000, 128)
	ov := newOverlay(n, seed)
	delivered := 0
	for _, a := range ov.apps {
		a.deliver = func(simnet.Endpoint, any) { delivered++ }
	}
	rng := rand.New(rand.NewSource(seed))
	msgs := scaled(quick, 30000, 2000)
	keys := ids.RandomN(rng, msgs)
	payload := &struct{}{}
	hops := ov.o.Histogram("pastry_hops")
	var route stopwatch
	route.start()
	for _, key := range keys {
		ov.apps[rng.Intn(n)].pn.Route(key, payload, 100, simnet.ClassQuery)
	}
	ov.w.RunUntil(ov.w.Now() + 10*time.Second)
	route.stop()
	if delivered != msgs {
		return nil, fmt.Errorf("delivered %d of %d routes", delivered, msgs)
	}
	totalHops := hops.Mean() * float64(hops.Count())

	// Churn: stop a node, let its neighbours detect and repair, start it
	// again and let the join finish.
	cycles := scaled(quick, 200, 10)
	ready := 0
	var join stopwatch
	join.start()
	for i := 0; i < cycles; i++ {
		pn := ov.apps[rng.Intn(n)].pn
		pn.OnReady = func() { ready++ }
		pn.Stop()
		ov.w.RunUntil(ov.w.Now() + time.Minute)
		pn.Start()
		ov.w.RunUntil(ov.w.Now() + time.Minute)
	}
	join.stop()
	if ready != cycles {
		return nil, fmt.Errorf("%d of %d joins completed", ready, cycles)
	}
	out := map[string]float64{
		"pastry.route_ns_per_msg": route.ns / float64(msgs),
		"pastry.join_ns":          join.ns / float64(cycles),
	}
	if totalHops > 0 {
		out["pastry.route_ns_per_hop"] = route.ns / totalHops
	}
	return out, nil
}

func driveMetadata(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 256, 32)
	ov := newOverlay(n, seed)
	wcfg := anemone.DefaultConfig(24*time.Hour, seed)
	wcfg.MeanFlowsPerDay = 200
	sum := anemone.Generate(wcfg, 0).Summary()
	mcfg := metadata.DefaultConfig()
	svcs := make([]*metadata.Service, n)
	for i, a := range ov.apps {
		svc := metadata.NewService(a.pn, mcfg, seed+int64(i))
		svc.SetLocalMetadata(sum, &avail.Model{})
		a.deliver = func(_ simnet.Endpoint, payload any) { svc.HandleMessage(payload) }
		svcs[i] = svc
	}
	var sw stopwatch
	sw.start()
	for _, svc := range svcs {
		svc.Activate()
	}
	ov.w.RunUntil(ov.w.Now() + 2*mcfg.PushPeriod)
	sw.stop()
	pushes := float64(ov.o.Counter("meta_pushes").Value())
	if pushes == 0 {
		return nil, fmt.Errorf("no metadata push in two push periods")
	}
	return map[string]float64{
		"metadata.push_ns":    sw.ns / pushes,
		"metadata.push_bytes": ov.net.Stats().TotalTx(simnet.ClassMaintenance) / pushes,
	}, nil
}

func driveDissem(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 256, 48)
	ov := newOverlay(n, seed)
	dcfg := dissem.DefaultConfig()
	engines := make([]*dissem.Engine, n)
	for i, a := range ov.apps {
		dcfg.Seed = seed + int64(i) + 1
		eng := dissem.NewEngine(a, dcfg)
		a.deliver = func(from simnet.Endpoint, payload any) { eng.HandleMessage(from, payload) }
		engines[i] = eng
	}
	q := relq.MustParse(paperQueries[0])
	rng := rand.New(rand.NewSource(seed))
	const injections = 20
	returned := 0
	sends0 := ov.o.Counter("net_sends").Value()
	var sw stopwatch
	sw.start()
	for i := 0; i < injections; i++ {
		engines[rng.Intn(n)].Inject(q, 0, func(*predictor.Predictor) { returned++ })
		ov.w.RunUntil(ov.w.Now() + 4*time.Second)
	}
	sw.stop()
	if returned != injections {
		return nil, fmt.Errorf("%d of %d predictors returned", returned, injections)
	}
	rangeMsgs := float64(ov.o.Counter("dissem_range_msgs").Value())
	if rangeMsgs == 0 {
		return nil, fmt.Errorf("no range message sent")
	}
	return map[string]float64{
		"dissem.ns_per_range_msg": sw.ns / rangeMsgs,
		"dissem.msgs_per_query":   float64(ov.o.Counter("net_sends").Value()-sends0) / injections,
	}, nil
}

func driveAggtree(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 512, 48)
	ov := newOverlay(n, seed)
	engines := make([]*aggtree.Engine, n)
	for i, a := range ov.apps {
		eng := aggtree.NewEngine(a, aggtree.DefaultConfig())
		a.deliver = func(from simnet.Endpoint, payload any) { eng.HandleMessage(from, payload) }
		engines[i] = eng
	}
	q := relq.MustParse(paperQueries[1])
	const queries = 5
	var one agg.Partial
	one.Observe(1)
	sends0 := ov.o.Counter("net_sends").Value()
	var sw stopwatch
	sw.start()
	for k := 0; k < queries; k++ {
		qid := ids.HashString(fmt.Sprintf("driver-query-%d", k))
		for _, eng := range engines {
			eng.Submit(qid, one, q, 0, 0)
		}
		// Short of the first resubmission at 20 s, so each contribution
		// travels once.
		ov.w.RunUntil(ov.w.Now() + 15*time.Second)
	}
	sw.stop()
	if ov.apps[0].results == 0 {
		return nil, fmt.Errorf("no result reached the injector")
	}
	subs := float64(queries * n)
	return map[string]float64{
		"aggtree.ns_per_submission":   sw.ns / subs,
		"aggtree.msgs_per_submission": float64(ov.o.Counter("net_sends").Value()-sends0) / subs,
	}, nil
}

func driveAgg(seed int64, quick bool) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]agg.Partial, 256)
	for i := range parts {
		for k := 0; k < 4; k++ {
			parts[i].Observe(rng.Float64() * 1e6)
		}
	}
	n := scaled(quick, 1000000, 100000)
	var merge stopwatch
	merge.start()
	var acc agg.Partial
	for i := 0; i < n; i++ {
		acc = acc.Merge(parts[i&255])
	}
	merge.stop()
	sink += uint64(acc.Count)

	var codec stopwatch
	buf := make([]byte, 0, 64)
	codec.start()
	for i := 0; i < n; i++ {
		buf = parts[i&255].Encode(buf[:0])
		p, _, err := agg.DecodePartial(buf)
		if err != nil {
			return nil, err
		}
		sink += uint64(p.Count)
	}
	codec.stop()
	return map[string]float64{
		"agg.merge_ns": merge.ns / float64(n),
		"agg.codec_ns": codec.ns / float64(n),
	}, nil
}

// flowRow draws one Flow row with the given timestamp from a small value
// space, so equality and range predicates both select a real share.
func flowRow(rng *rand.Rand, ts int64) []int64 {
	ports := [...]int64{80, 443, 445, 53, 1433, 6881}
	port := ports[rng.Intn(len(ports))]
	bytes := int64(math.Exp(9 + 1.6*rng.NormFloat64()))
	return []int64{ts, 300, int64(rng.Intn(1 << 16)), int64(rng.Intn(1 << 16)), port,
		int64(1024 + rng.Intn(64511)), port, 6, port, bytes, bytes/700 + 1}
}

func driveRelq(seed int64, quick bool) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	nrows := scaled(quick, 262144, 16384)
	rowsIn := make([][]int64, nrows)
	for i := range rowsIn {
		rowsIn[i] = flowRow(rng, int64(i))
	}
	o := obs.New()
	tbl := relq.NewTable(anemone.FlowSchema())
	tbl.SetExecStats(relq.StandardExecStats(o))
	var insert stopwatch
	insert.start()
	for _, r := range rowsIn {
		if err := tbl.InsertInts(r...); err != nil {
			return nil, err
		}
	}
	insert.stop()

	var build stopwatch
	build.start()
	tbl.BuildSummary()
	build.stop()

	scanned := o.Counter("rows_scanned")
	var scanErr error
	scan := func(sql string) float64 {
		q := relq.MustParse(sql)
		reps := scaled(quick, 20, 10)
		before := scanned.Value()
		var sw stopwatch
		sw.start()
		for i := 0; i < reps; i++ {
			part, err := tbl.Execute(q, 0)
			if err != nil {
				scanErr = err
				return 0
			}
			sink += uint64(part.Count)
		}
		sw.stop()
		rows := float64(scanned.Value() - before)
		if rows == 0 {
			scanErr = fmt.Errorf("%s scanned no rows", sql)
			return 0
		}
		return sw.ns / rows
	}
	// The table is timestamp-ordered: a predicate on Bytes alone scans
	// every block; adding a ts bound lets zone maps drop three quarters of
	// them, and the cost is per row still scanned.
	unpruned := scan("SELECT SUM(Bytes) FROM Flow WHERE Bytes > 20000")
	prunable := scan(fmt.Sprintf("SELECT SUM(Bytes) FROM Flow WHERE ts >= %d AND Bytes > 20000", nrows*3/4))
	if scanErr != nil {
		return nil, scanErr
	}

	n := scaled(quick, 20000, 2000)
	var parse stopwatch
	parse.start()
	for i := 0; i < n; i++ {
		q, err := relq.Parse(scanQueries[i%len(scanQueries)])
		if err == nil {
			_, err = tbl.Bind(q)
		}
		if err != nil {
			return nil, err
		}
	}
	parse.stop()
	return map[string]float64{
		"relq.insert_ns_per_row":        insert.ns / float64(nrows),
		"relq.summary_build_ms":         build.ns / 1e6,
		"relq.scan_ns_per_row_unpruned": unpruned,
		"relq.scan_ns_per_row_prunable": prunable,
		"relq.parse_bind_ns":            parse.ns / float64(n),
	}, nil
}

func driveHistogram(seed int64, quick bool) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(quick, 262144, 16384)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(math.Exp(9 + 1.6*rng.NormFloat64()))
	}
	var build stopwatch
	build.start()
	h := histogram.BuildEquiDepth(vals, relq.HistogramBuckets)
	build.stop()

	probes := scaled(quick, 200000, 20000)
	var est stopwatch
	est.start()
	var acc float64
	for i := 0; i < probes; i++ {
		v := vals[i%n]
		acc += h.EstimateRange(v, 2*v) + h.EstimateEq(v)
	}
	est.stop()
	sink += uint64(acc)
	return map[string]float64{
		"histogram.build_ns_per_value": build.ns / float64(n),
		"histogram.estimate_ns":        est.ns / float64(2*probes),
		"histogram.encoded_bytes":      float64(histogram.EncodedSize(h)),
	}, nil
}

func drivePredictor(seed int64, quick bool) (map[string]float64, error) {
	week := 7 * 24 * time.Hour
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(64, 2*week, seed))
	models := make([]*avail.Model, len(trace.Profiles))
	for i, p := range trace.Profiles {
		models[i] = avail.LearnModel(p, 2*week)
	}
	n := scaled(quick, 4000, 400)
	var add stopwatch
	var pred predictor.Predictor
	add.start()
	for i := 0; i < n; i++ {
		pred.AddModel(models[i%len(models)], 2*week, 2*week-time.Duration(i%7)*time.Hour, 100)
	}
	add.stop()

	m := scaled(quick, 400000, 40000)
	var merge stopwatch
	var total predictor.Predictor
	merge.start()
	for i := 0; i < m; i++ {
		total.Merge(&pred)
	}
	merge.stop()
	sink += uint64(total.ExpectedTotal())
	return map[string]float64{
		"predictor.addmodel_ns": add.ns / float64(n),
		"predictor.merge_ns":    merge.ns / float64(m),
	}, nil
}

func driveAvail(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 2000, 100)
	horizon := 4 * 7 * 24 * time.Hour
	var gen stopwatch
	gen.start()
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, seed))
	gen.stop()

	models := make([]*avail.Model, n)
	var learn stopwatch
	learn.start()
	for i, p := range trace.Profiles {
		models[i] = avail.LearnModel(p, horizon)
	}
	learn.stop()

	probes := scaled(quick, 400000, 40000)
	var prob stopwatch
	var acc float64
	prob.start()
	for i := 0; i < probes; i++ {
		acc += models[i%n].ProbUpBy(horizon, horizon-time.Hour, horizon+time.Duration(i%48)*time.Hour)
	}
	prob.stop()
	sink += uint64(acc)
	return map[string]float64{
		"avail.gen_ms":      gen.ns / 1e6,
		"avail.learn_ns":    learn.ns / float64(n),
		"avail.probupby_ns": prob.ns / float64(probes),
	}, nil
}

func driveAnemone(seed int64, quick bool) (map[string]float64, error) {
	cfg := anemone.DefaultConfig(7*24*time.Hour, seed)
	endsystems := scaled(quick, 16, 2)
	rows := 0
	var sw stopwatch
	sw.start()
	for i := 0; i < endsystems; i++ {
		rows += anemone.Generate(cfg, i).Flow.NumRows()
	}
	sw.stop()
	if rows == 0 {
		return nil, fmt.Errorf("generated no rows")
	}
	return map[string]float64{"anemone.gen_ns_per_row": sw.ns / float64(rows)}, nil
}

func driveCoords(seed int64, quick bool) (map[string]float64, error) {
	n := scaled(quick, 2000, 128)
	_, net, _ := newNet(n, seed)
	space := coords.NewSpace(net, coords.Enabled())
	rng := rand.New(rand.NewSource(seed))
	space.SetIDs(ids.RandomN(rng, n))
	samples := scaled(quick, 300000, 20000)
	pairs := make([][2]simnet.Endpoint, samples)
	for i := range pairs {
		pairs[i] = [2]simnet.Endpoint{simnet.Endpoint(rng.Intn(n)), simnet.Endpoint(rng.Intn(n))}
	}
	var observe stopwatch
	observe.start()
	for _, p := range pairs {
		space.Observe(p[0], p[1], 2*net.Delay(p[0], p[1]))
	}
	observe.stop()

	const scopes = 20
	var build stopwatch
	build.start()
	for i := 0; i < scopes; i++ {
		qid := ids.HashString(fmt.Sprintf("driver-scope-%d", i))
		space.BeginScope(qid, simnet.Endpoint(rng.Intn(n)), 50*time.Millisecond)
		space.EndScope(qid)
	}
	build.stop()
	return map[string]float64{
		"coords.observe_ns":     observe.ns / float64(samples),
		"coords.scope_build_ms": build.ns / 1e6 / scopes,
	}, nil
}

func driveObs(seed int64, quick bool) (map[string]float64, error) {
	h := obs.New().DurationHistogram("driver_ns")
	n := scaled(quick, 2000000, 100000)
	var sw stopwatch
	sw.start()
	for i := 0; i < n; i++ {
		h.Observe(int64(i&0xffff) * 1000)
	}
	sw.stop()
	sink += h.Count()
	return map[string]float64{"obs.observe_ns": sw.ns / float64(n)}, nil
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/avail"
	"repro/internal/coords"
	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// Fig9Query is the query the packet-level experiments inject (§4.3.3).
const Fig9Query = "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"

// packetRun is the common result of one packet-level simulation.
type packetRun struct {
	Cluster  *core.Cluster
	Handle   *core.QueryHandle
	Trace    *avail.Trace
	InjectAt time.Duration
	RanUntil time.Duration
}

// runPacket builds a cluster on the trace, injects the Figure 9 query at
// injectAt, and runs to the trace horizon.
func runPacket(s Scale, trace *avail.Trace, seed int64) *packetRun {
	cfg := s.clusterConfig(trace, seed)
	if s.Coords {
		cfg.Coords = coords.Enabled()
	}
	// The paper lets the Figure 9 query run to the end of the simulation
	// (weeks), so the default 48 h query TTL is disabled here.
	cfg.Node.Agg.QueryTTL = 0
	c := core.NewCluster(cfg)

	injectAt := trace.Horizon / 2
	c.RunUntil(injectAt)
	q := relq.MustParse(Fig9Query)
	inj := firstLive(c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(trace.Horizon)
	return &packetRun{Cluster: c, Handle: h, Trace: trace, InjectAt: injectAt, RanUntil: trace.Horizon}
}

func firstLive(c *core.Cluster) simnet.Endpoint {
	for i, n := range c.Nodes {
		if n.Alive() {
			return simnet.Endpoint(i)
		}
	}
	return 0
}

// Fig9aResult is the overhead timeline split by traffic class.
type Fig9aResult struct {
	BucketHours float64
	// Per bucket: systemwide B/s per online endsystem, by class.
	Pastry, Maintenance, Query []float64
	OnlineFraction             []float64
	MeanTotalPerOnline         float64
	PredictorLatency           time.Duration
}

// Fig9a regenerates the overhead-over-time panel: per-online-endsystem
// bandwidth split into MSPastry, Seaweed maintenance and query overhead.
func Fig9a(s Scale) *Fig9aResult {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.PacketN, s.PacketHorizon, s.Seed))
	run := runPacket(s, trace, s.Seed)
	return fig9aFrom(run)
}

func fig9aFrom(run *packetRun) *Fig9aResult {
	st := run.Cluster.Net.Stats()
	buckets := int(run.RanUntil / st.Bucket())
	r := &Fig9aResult{BucketHours: st.Bucket().Hours()}
	pastryTl := st.ClassTxTimeline(simnet.ClassPastry)
	maintTl := st.ClassTxTimeline(simnet.ClassMaintenance)
	queryTl := st.ClassTxTimeline(simnet.ClassQuery)
	n := float64(run.Trace.NumEndsystems())
	var sumTotal, sumBuckets float64
	for b := 0; b < buckets; b++ {
		mid := time.Duration(b)*st.Bucket() + st.Bucket()/2
		frac := run.Trace.FractionAvailable(mid)
		online := frac * n
		if online < 1 {
			online = 1
		}
		r.OnlineFraction = append(r.OnlineFraction, frac)
		r.Pastry = append(r.Pastry, pastryTl[b]/online)
		r.Maintenance = append(r.Maintenance, maintTl[b]/online)
		r.Query = append(r.Query, queryTl[b]/online)
		sumTotal += (pastryTl[b] + maintTl[b] + queryTl[b]) / online
		sumBuckets++
	}
	if sumBuckets > 0 {
		r.MeanTotalPerOnline = sumTotal / sumBuckets
	}
	if run.Handle.Predictor != nil {
		r.PredictorLatency = run.Handle.PredictorAt - run.Handle.Injected
	}
	return r
}

// WriteTo renders the timeline.
func (r *Fig9aResult) Render(w io.Writer) {
	header(w, fmt.Sprintf(
		"Figure 9(a): overhead timeline, B/s per online endsystem (mean %.1f; predictor latency %v)",
		r.MeanTotalPerOnline, r.PredictorLatency),
		"hour", "pastry", "maintenance", "query", "online_fraction")
	for b := range r.Pastry {
		row(w, float64(b)*r.BucketHours, r.Pastry[b], r.Maintenance[b], r.Query[b], r.OnlineFraction[b])
	}
}

// Fig9bResult is the load-distribution CDF across endsystems and hours.
type Fig9bResult struct {
	TxXs, TxFs []float64 // CDF of per-endsystem per-hour tx B/s
	RxXs, RxFs []float64
	Tx, Rx     simnet.Distribution
}

// Fig9b regenerates the cumulative load distribution: one sample per
// (endsystem, hour), as in the paper.
func Fig9b(s Scale) *Fig9bResult {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.PacketN, s.PacketHorizon, s.Seed))
	run := runPacket(s, trace, s.Seed)
	return fig9bFrom(run)
}

func fig9bFrom(run *packetRun) *Fig9bResult {
	st := run.Cluster.Net.Stats()
	r := &Fig9bResult{}
	tx := st.PerEndpointHourSamples(false, 0, run.RanUntil)
	rx := st.PerEndpointHourSamples(true, 0, run.RanUntil)
	r.Tx = simnet.Summarize(append([]float64(nil), tx...))
	r.Rx = simnet.Summarize(append([]float64(nil), rx...))
	r.TxXs, r.TxFs = simnet.CDF(tx, 200)
	r.RxXs, r.RxFs = simnet.CDF(rx, 200)
	return r
}

// MeanOnlineTx returns the mean transmit bandwidth per online endsystem
// (zero samples are offline hours).
func (r *Fig9bResult) MeanOnlineTx() float64 {
	if r.Tx.ZeroFraction >= 1 {
		return 0
	}
	return r.Tx.Mean / (1 - r.Tx.ZeroFraction)
}

// WriteTo renders the CDF.
func (r *Fig9bResult) Render(w io.Writer) {
	header(w, fmt.Sprintf(
		"Figure 9(b): per-endsystem-hour bandwidth CDF (tx mean/online %.1f B/s, p99 %.1f; rx p99 %.1f)",
		r.MeanOnlineTx(), r.Tx.P99, r.Rx.P99),
		"tx_Bps", "cdf")
	for i := range r.TxXs {
		row(w, r.TxXs[i], r.TxFs[i])
	}
}

// Fig9cResult compares load CDFs across random endsystemId assignments.
type Fig9cResult struct {
	Seeds []int64
	Xs    [][]float64
	Fs    [][]float64
	// MaxMeanGap is the largest pairwise difference between the runs'
	// mean per-endsystem-hour bandwidths, the paper's insensitivity
	// metric.
	MaxMeanGap float64
}

// Fig9c reruns the experiment under several random endsystemId assignments
// to show the results do not depend on the assignment. The assignments are
// independent simulations, so they fan out across the engine's workers.
func Fig9c(s Scale, seeds []int64) *Fig9cResult {
	r := &Fig9cResult{Seeds: seeds}
	type cdf struct {
		mean   float64
		xs, fs []float64
	}
	runs := runSeries(s, len(seeds), func(i int, sc Scale) cdf {
		trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(sc.PacketN, sc.PacketHorizon, sc.Seed))
		run := runPacket(sc, trace, seeds[i]) // same trace/workload, new ids
		st := run.Cluster.Net.Stats()
		tx := st.PerEndpointHourSamples(false, 0, run.RanUntil)
		d := simnet.Summarize(append([]float64(nil), tx...))
		xs, fs := simnet.CDF(tx, 100)
		return cdf{mean: d.Mean, xs: xs, fs: fs}
	})
	var means []float64
	for _, c := range runs {
		means = append(means, c.mean)
		r.Xs = append(r.Xs, c.xs)
		r.Fs = append(r.Fs, c.fs)
	}
	for i := range means {
		for j := i + 1; j < len(means); j++ {
			gap := means[i] - means[j]
			if gap < 0 {
				gap = -gap
			}
			if gap > r.MaxMeanGap {
				r.MaxMeanGap = gap
			}
		}
	}
	return r
}

// WriteTo renders summary statistics per seed.
func (r *Fig9cResult) Render(w io.Writer) {
	header(w, fmt.Sprintf(
		"Figure 9(c): load CDFs under %d endsystemId assignments (max mean gap %.3g B/s)",
		len(r.Seeds), r.MaxMeanGap),
		"seed", "points")
	for i, s := range r.Seeds {
		row(w, s, len(r.Xs[i]))
	}
}

// Fig9dPoint is one network size of the scaling panel.
type Fig9dPoint struct {
	N                int
	Pastry           float64 // B/s per online endsystem
	Maintenance      float64
	Query            float64
	PredictorLatency time.Duration
	DissemBytes      float64 // query dissemination bytes per endsystem
	// PredictorBytes is the predictor's way back, per endsystem: every
	// response that carried a predictor, header and encoding (the paper's
	// "predictor aggregation", 776 B).
	PredictorBytes float64
}

// predictorPathBytes reads the bytes of predictor-carrying responses off
// the dissem counters (0 with observability off). Every response is taken
// for a rangeResp; the one predictorMsg a query ends in has a header 32
// bytes shorter.
func predictorPathBytes(o *obs.Obs) float64 {
	return float64(o.Counter("dissem_resps").Value()*dissem.RangeRespHeaderBytes +
		o.Counter("dissem_predictor_bytes").Value())
}

// Fig9d measures overhead and predictor latency as network size varies
// (the paper sweeps 2,000 to 51,663 endsystems). Each size is an
// independent simulation fanned across the engine's workers.
func Fig9d(s Scale, sizes []int) []Fig9dPoint {
	return runSeries(s, len(sizes), func(i int, sc Scale) Fig9dPoint {
		n := sizes[i]
		sc.PacketN = n
		trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, sc.PacketHorizon, sc.Seed))
		// A serial series shares one registry: count this run's part.
		predBefore := predictorPathBytes(sc.Obs)
		run := runPacket(sc, trace, sc.Seed)
		st := run.Cluster.Net.Stats()
		stats := trace.ComputeStats()
		onlineSeconds := stats.MeanAvailability * float64(n) * run.RanUntil.Seconds()
		pt := Fig9dPoint{
			N:           n,
			Pastry:      st.TotalTx(simnet.ClassPastry) / onlineSeconds,
			Maintenance: st.TotalTx(simnet.ClassMaintenance) / onlineSeconds,
			Query:       st.TotalTx(simnet.ClassQuery) / onlineSeconds,
			DissemBytes: st.TotalTx(simnet.ClassQuery) / float64(n),

			PredictorBytes: (predictorPathBytes(run.Cluster.Obs()) - predBefore) / float64(n),
		}
		if run.Handle.Predictor != nil {
			pt.PredictorLatency = run.Handle.PredictorAt - run.Handle.Injected
		}
		return pt
	})
}

// WriteFig9d renders the scaling panel.
func WriteFig9d(w io.Writer, pts []Fig9dPoint) {
	header(w, "Figure 9(d): overhead vs network size (B/s per online endsystem)",
		"N", "pastry", "maintenance", "query", "predictor_latency", "query_bytes_per_endsystem",
		"predictor_bytes_per_endsystem")
	for _, p := range pts {
		row(w, p.N, p.Pastry, p.Maintenance, p.Query, p.PredictorLatency, p.DissemBytes, p.PredictorBytes)
	}
}

// Fig10Result is the high-churn (Gnutella) experiment: timeline and load
// distribution under a departure rate ~23x Farsite's.
type Fig10Result struct {
	Timeline *Fig9aResult
	Load     *Fig9bResult
	Stats    avail.Stats
}

// Fig10 runs the packet-level simulation on the Gnutella-like trace
// (paper: 7,602 endsystems, 60 hours).
func Fig10(s Scale) *Fig10Result {
	horizon := s.PacketHorizon
	if horizon > 60*time.Hour {
		horizon = 60 * time.Hour
	}
	trace := avail.GenerateGnutella(avail.DefaultGnutellaConfig(s.PacketN, horizon, s.Seed))
	run := runPacket(s, trace, s.Seed)
	return &Fig10Result{
		Timeline: fig9aFrom(run),
		Load:     fig9bFrom(run),
		Stats:    trace.ComputeStats(),
	}
}

// WriteTo renders both panels.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "# Figure 10: high-churn overhead (departures/online-s %.3g)\n",
		r.Stats.DeparturesPerOnlineSecond)
	r.Timeline.Render(w)
	r.Load.Render(w)
}

// Fig2Result is the example completeness predictor of Figure 2.
type Fig2Result struct {
	Pred     *predictor.Predictor
	Delays   []time.Duration
	Rows     []float64
	Complete []float64
}

// Fig2 produces an example completeness predictor by injecting the
// Figure 9 query into a packet-level cluster at midnight, when a sizable
// fraction of endsystems is down.
func Fig2(s Scale) *Fig2Result {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(s.PacketN, s.PacketHorizon, s.Seed))
	cfg := s.clusterConfig(trace, s.Seed)
	c := core.NewCluster(cfg)
	injectAt := s.PacketHorizon / 2
	injectAt -= injectAt % avail.Day // midnight
	c.RunUntil(injectAt)
	h := c.InjectQuery(firstLive(c), relq.MustParse(Fig9Query))
	c.RunUntil(injectAt + 10*time.Minute)
	r := &Fig2Result{Pred: h.Predictor}
	if r.Pred == nil {
		return r
	}
	for _, d := range core.DefaultSampleDelays(72 * time.Hour) {
		r.Delays = append(r.Delays, d)
		r.Rows = append(r.Rows, r.Pred.RowsBy(d))
		r.Complete = append(r.Complete, r.Pred.CompletenessBy(d))
	}
	return r
}

// WriteTo renders the predictor curve.
func (r *Fig2Result) Render(w io.Writer) {
	if r.Pred == nil {
		fmt.Fprintln(w, "# Figure 2: no predictor (injection failed)")
		return
	}
	header(w, fmt.Sprintf(
		"Figure 2: example completeness predictor (expected total %.0f rows, %.0f%% immediate)",
		r.Pred.ExpectedTotal(), 100*r.Pred.Immediate/r.Pred.ExpectedTotal()),
		"delay", "expected_rows", "completeness")
	for i := range r.Delays {
		row(w, fmtDuration(r.Delays[i]), r.Rows[i], r.Complete[i])
	}
}

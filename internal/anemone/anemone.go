// Package anemone generates the endsystem-based network-management
// workload the paper drives Seaweed with. Anemone (Mortier et al., SIGCOMM
// MineNet 2005) captures each endsystem's network activity into two tables,
// Packet and Flow; the paper's evaluation instruments 456 machines for
// three weeks and queries the resulting Flow tables.
//
// That capture is unavailable, so this package synthesizes per-endsystem
// Flow tables with the marginals the paper's four
// evaluation queries exercise: a realistic application and port mix
// (HTTP/80, HTTPS/443, SMB/445, SQL/1433, DNS/53, ephemeral), heavy-tailed
// flow sizes, privileged local ports on server-like endsystems, and
// diurnal/weekly timestamp patterns. Every endsystem's data is
// deterministic in (seed, endsystem index) and independent of the
// population size.
package anemone

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/avail"
	"repro/internal/ids"
	"repro/internal/relq"
)

// Config parameterizes workload generation.
type Config struct {
	// Seed drives all randomness; endsystem i derives its own stream.
	Seed int64
	// Horizon is the span of timestamps generated (the capture period).
	Horizon time.Duration
	// MeanFlowsPerDay is the mean number of Flow records an endsystem
	// produces per day, before diurnal modulation.
	MeanFlowsPerDay int
}

// DefaultConfig returns a workload sized for simulation: 2,000 flow
// records per endsystem-day. (The real Anemone deployment records far more
// — 970 bytes/s of new data per endsystem — but the row count only scales
// the constant factors, not any of the evaluated behaviour; the analytic
// models use the paper's published u and d directly.)
func DefaultConfig(horizon time.Duration, seed int64) Config {
	return Config{Seed: seed, Horizon: horizon, MeanFlowsPerDay: 2000}
}

// flowSchema is the Flow table schema: one immutable column list that
// every endsystem's table shares, so that a query bound for one Flow table
// runs on all of them (relq.Table.Plan). The five indexed columns (ts,
// SrcPort, LocalPort, App, Bytes) match the paper's five histograms per
// endsystem.
var flowSchema = relq.Schema{Name: "Flow", Columns: []relq.Column{
	{Name: "ts", Type: relq.TInt, Indexed: true}, // seconds since epoch
	{Name: "Interval", Type: relq.TInt},          // measurement interval, seconds
	{Name: "SrcIP", Type: relq.TInt},
	{Name: "DstIP", Type: relq.TInt},
	{Name: "SrcPort", Type: relq.TInt, Indexed: true},
	{Name: "DstPort", Type: relq.TInt},
	{Name: "LocalPort", Type: relq.TInt, Indexed: true},
	{Name: "Proto", Type: relq.TInt},
	{Name: "App", Type: relq.TString, Indexed: true},
	{Name: "Bytes", Type: relq.TInt, Indexed: true},
	{Name: "Packets", Type: relq.TInt},
}}

// FlowSchema returns the Flow table schema, whose column list callers
// must not modify.
func FlowSchema() relq.Schema { return flowSchema }

// Dataset is one endsystem's generated data: the Flow table every paper
// query reads.
type Dataset struct {
	Flow *relq.Table
}

// Summary builds the endsystem's replicable data summary.
func (d *Dataset) Summary() *relq.Summary { return d.Flow.BuildSummary() }

// app describes one application class in the traffic mix.
type app struct {
	name       string
	port       int64   // well-known server port
	proto      int64   // IP protocol: 6 (TCP) or 17 (UDP)
	weight     float64 // share of flows
	logBytesMu float64 // lognormal parameters of flow size in bytes
	logBytesSd float64
}

// trafficMix is the application mix. Weights sum to 1. Flow sizes are
// lognormal: HTTP flows with median ~8 kB and a heavy tail; SMB transfers
// larger; DNS tiny.
var trafficMix = [...]app{
	{name: "HTTP", port: 80, proto: 6, weight: 0.34, logBytesMu: 9.0, logBytesSd: 1.6},
	{name: "HTTPS", port: 443, proto: 6, weight: 0.16, logBytesMu: 8.8, logBytesSd: 1.5},
	{name: "SMB", port: 445, proto: 6, weight: 0.20, logBytesMu: 10.2, logBytesSd: 1.8},
	{name: "SQL", port: 1433, proto: 6, weight: 0.06, logBytesMu: 8.0, logBytesSd: 1.2},
	{name: "DNS", port: 53, proto: 17, weight: 0.14, logBytesMu: 5.0, logBytesSd: 0.7},
	{name: "P2P", port: 6881, proto: 6, weight: 0.10, logBytesMu: 11.0, logBytesSd: 2.0},
}

// appCodes are the App column's values: trafficMix's names hash-encoded.
var appCodes = func() (codes [len(trafficMix)]int64) {
	for k, a := range trafficMix {
		codes[k] = relq.HashString(a.name)
	}
	return codes
}()

// endsystemProfile holds an endsystem's persistent traffic identity.
type endsystemProfile struct {
	isServer bool
	localIP  int64
	accept   *[hoursPerWeek]float64 // acceptRates of its kind
}

func profileFor(rng *rand.Rand, i int) endsystemProfile {
	p := endsystemProfile{isServer: rng.Float64() < 0.125, localIP: int64(0x0a000000 + i)} // 10.x.y.z
	p.accept = &acceptRates[0]
	if p.isServer {
		p.accept = &acceptRates[1]
	}
	return p
}

// flowColumns is the Flow table's column count: a row as drawFlow draws it.
const flowColumns = 11

// drawFlow draws one flow record with the given timestamp, in column order.
func drawFlow(rng *rand.Rand, prof *endsystemProfile, ts int64) [flowColumns]int64 {
	a := sampleApp(rng)
	spec := &trafficMix[a]
	bytes := min(max(int64(math.Exp(spec.logBytesMu+spec.logBytesSd*rng.NormFloat64())), 64), 1<<31)
	packets := bytes/700 + 1 + int64(rng.Intn(4))

	remoteIP := int64(0x0a000000 + rng.Intn(1<<16))
	ephemeral := int64(1024 + rng.Intn(64511))

	// Direction: servers mostly receive requests on the well-known port;
	// workstations mostly originate requests to it. The response traffic
	// of an outbound flow (SrcPort = well-known port) dominates by
	// convention in Anemone's Rx direction, so half of those are recorded
	// from the remote server's side, for a realistic SrcPort=80 population.
	inbound := rng.Float64() < 0.7
	if !prof.isServer {
		inbound = rng.Float64() < 0.25
	}
	srcIP, dstIP, srcPort, dstPort, localPort := remoteIP, prof.localIP, ephemeral, spec.port, spec.port
	if !inbound {
		localPort = ephemeral
		if rng.Float64() < 0.5 {
			srcPort, dstPort = spec.port, ephemeral
		} else {
			srcIP, dstIP = prof.localIP, remoteIP
		}
	}
	return [flowColumns]int64{ts, 300, srcIP, dstIP, srcPort, dstPort,
		localPort, spec.proto, appCodes[a], bytes, packets}
}

// Generate builds the dataset for endsystem index i. Roughly one in eight
// endsystems behaves as a server (most flows inbound to privileged or
// well-known local ports); the rest are workstations (ephemeral local
// ports, working-hours activity).
func Generate(cfg Config, i int) *Dataset {
	rng := rand.New(ids.NewSource(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0xa4e04e))
	prof := profileFor(rng, i)

	// The exact row count is known before the first row, so the table is
	// told it: relq reserves the block directory, the zone maps and an
	// open tail of at most one block, and seals the last block at its own
	// length on the last row. Rows are drawn a block at a time into one
	// column-major buffer sized to the table — a 12-row table pays for 12
	// rows, not a block — and appended a block at a time. (The rng draw
	// order is profile, then volume, then rows, row after row.)
	days := cfg.Horizon.Hours() / 24
	total := int(float64(cfg.MeanFlowsPerDay) * days * (0.75 + rng.Float64()*0.5))
	d := &Dataset{Flow: relq.NewTableWithCapacity(FlowSchema(), total)}
	n := min(total, relq.BlockSize)
	buf := make([]int64, flowColumns*n)
	var cols [flowColumns][]int64
	// The largest rng.Int63 draw that rng.Int63n(horizon) keeps, computed
	// once here instead of on every draw (a horizon under 1 ns draws no rows).
	reject := int64(1<<63 - 1 - (1<<63)%uint64(max(cfg.Horizon, 1)))
	for done := 0; done < total; done += n {
		n = min(n, total-done)
		for c := range cols {
			cols[c] = buf[c*n : (c+1)*n]
		}
		for r := range n {
			row := drawFlow(rng, &prof, sampleTimestamp(rng, int64(cfg.Horizon), reject, prof.accept))
			for c, v := range row {
				cols[c][r] = v
			}
		}
		d.Flow.AppendColumns(cols[:])
	}
	return d
}

// Streamer produces endsystem i's flow records incrementally in virtual
// time, for simulations with live data updates (which the paper's own
// simulator could not support: "these optimizations did prevent us from
// supporting data updates during simulation"). Rows produced by a
// streamer follow the same distributions as Generate, arrive in
// timestamp order, and are deterministic in (seed, endsystem).
type Streamer struct {
	cfg    Config
	rng    *rand.Rand
	prof   endsystemProfile
	cursor time.Duration
}

// NewStreamer creates the streamer for endsystem i.
func NewStreamer(cfg Config, i int) *Streamer {
	rng := rand.New(ids.NewSource(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0x57e4))
	return &Streamer{cfg: cfg, rng: rng, prof: profileFor(rng, i)}
}

// hoursPerWeek is the period of the acceptance shape.
const hoursPerWeek = 7 * 24

// acceptRates[s][h] is the diurnal/weekly acceptance shape of flow
// timestamps at hour of week h, for workstations (s = 0) and servers
// (s = 1): the probability that Generate keeps an instant it drew, and a
// streamer's relative rate.
var acceptRates = func() (r [2][hoursPerWeek]float64) {
	for h := range hoursPerWeek {
		hour, weekend := h%24, h >= 5*24
		switch r[1][h] = 0.55; {
		case weekend:
			r[0][h] = 0.10
		case hour >= 9 && hour < 18:
			r[0][h] = 1.0
		case hour >= 7 && hour < 22:
			r[0][h] = 0.35
		default:
			r[0][h] = 0.05
		}
		if hour >= 8 && hour < 20 {
			r[1][h] = 1.0
		}
	}
	return r
}()

// acceptRate returns accept's entry for instant t (t >= 0).
func acceptRate(accept *[hoursPerWeek]float64, t time.Duration) float64 {
	return accept[t%avail.Week/time.Hour]
}

// meanAccept is the time-averaged acceptance of a profile; it normalizes
// the streaming rate so a streamer and Generate produce comparable
// volumes.
func meanAccept(accept *[hoursPerWeek]float64) float64 {
	var sum float64
	for _, a := range accept {
		sum += a
	}
	return sum / hoursPerWeek
}

// SkipTo advances the cursor without generating rows — used when the
// endsystem was offline (no data is produced while down).
func (st *Streamer) SkipTo(t time.Duration) { st.cursor = max(st.cursor, t) }

// AppendTo generates the rows with timestamps in [cursor, upTo) into the
// Flow table and advances the cursor. It returns the number of rows added.
func (st *Streamer) AppendTo(flow *relq.Table, upTo time.Duration) int {
	added := 0
	basePerHour := float64(st.cfg.MeanFlowsPerDay) / 24 / meanAccept(st.prof.accept)
	// Walk hour by hour so the diurnal modulation applies within long
	// windows.
	for st.cursor < upTo {
		hourEnd := min(st.cursor-st.cursor%time.Hour+time.Hour, upTo)
		frac := float64(hourEnd-st.cursor) / float64(time.Hour)
		expected := basePerHour * acceptRate(st.prof.accept, st.cursor) * frac
		n := poisson(st.rng, expected)
		for range n {
			span := max(int64(hourEnd-st.cursor)/int64(time.Second), 1)
			row := drawFlow(st.rng, &st.prof, int64(st.cursor/time.Second)+st.rng.Int63n(span))
			flow.InsertInts(row[:]...)
		}
		added += n
		st.cursor = hourEnd
	}
	return added
}

// poisson draws a Poisson variate (Knuth's method; expectations here are
// small).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for ; k <= 10000; k++ {
		if p *= rng.Float64(); p <= l {
			return k
		}
	}
	return k
}

// sampleApp draws an application index from the weighted mix.
func sampleApp(rng *rand.Rand) int {
	x := rng.Float64()
	for i := range trafficMix {
		if x -= trafficMix[i].weight; x < 0 {
			return i
		}
	}
	return len(trafficMix) - 1
}

// sampleTimestamp draws a flow timestamp (in whole seconds) with diurnal
// and weekly modulation: a uniform instant in [0, horizon), drawn as
// rng.Int63n(horizon) draws it given that call's largest kept draw,
// reject, is kept with probability acceptRate, so workstation traffic
// concentrates in working hours and server traffic is flatter with a mild
// daytime bump.
func sampleTimestamp(rng *rand.Rand, horizon, reject int64, accept *[hoursPerWeek]float64) int64 {
	for {
		v := rng.Int63()
		for v > reject {
			v = rng.Int63()
		}
		if t := time.Duration(v % horizon); rng.Float64() < acceptRate(accept, t) {
			return int64(t / time.Second)
		}
	}
}

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
	return Config{
		Seed:            seed,
		Horizon:         horizon,
		MeanFlowsPerDay: 2000,
	}
}

// FlowSchema returns the Flow table schema. The five indexed columns (ts,
// SrcPort, LocalPort, App, Bytes) match the paper's five histograms per
// endsystem.
func FlowSchema() relq.Schema {
	return relq.Schema{
		Name: "Flow",
		Columns: []relq.Column{
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
		},
	}
}

// Dataset is one endsystem's generated data: the Flow table every paper
// query reads.
type Dataset struct {
	Flow *relq.Table
}

// Tables returns the dataset's tables.
func (d *Dataset) Tables() []*relq.Table { return []*relq.Table{d.Flow} }

// Summary builds the endsystem's replicable data summary.
func (d *Dataset) Summary() *relq.Summary {
	return relq.NewSummary(d.Tables()...)
}

// app describes one application class in the traffic mix.
type app struct {
	name       string
	port       int64   // well-known server port
	weight     float64 // share of flows
	logBytesMu float64 // lognormal parameters of flow size in bytes
	logBytesSd float64
}

// trafficMix is the application mix. Weights sum to 1. Flow sizes are
// lognormal: HTTP flows with median ~8 kB and a heavy tail; SMB transfers
// larger; DNS tiny.
var trafficMix = []app{
	{name: "HTTP", port: 80, weight: 0.34, logBytesMu: 9.0, logBytesSd: 1.6},
	{name: "HTTPS", port: 443, weight: 0.16, logBytesMu: 8.8, logBytesSd: 1.5},
	{name: "SMB", port: 445, weight: 0.20, logBytesMu: 10.2, logBytesSd: 1.8},
	{name: "SQL", port: 1433, weight: 0.06, logBytesMu: 8.0, logBytesSd: 1.2},
	{name: "DNS", port: 53, weight: 0.14, logBytesMu: 5.0, logBytesSd: 0.7},
	{name: "P2P", port: 6881, weight: 0.10, logBytesMu: 11.0, logBytesSd: 2.0},
}

// endsystemProfile holds an endsystem's persistent traffic identity.
type endsystemProfile struct {
	isServer bool
	localIP  int64
	appCodes []int64
}

func profileFor(rng *rand.Rand, i int) endsystemProfile {
	p := endsystemProfile{
		isServer: rng.Float64() < 0.125,
		localIP:  int64(0x0a000000 + i), // 10.x.y.z
		appCodes: make([]int64, len(trafficMix)),
	}
	for k, a := range trafficMix {
		p.appCodes[k] = relq.HashString(a.name)
	}
	return p
}

// appendFlow draws one flow record with the given timestamp and inserts it.
func appendFlow(rng *rand.Rand, prof endsystemProfile, d *Dataset, ts int64) {
	a := sampleApp(rng)
	spec := trafficMix[a]
	bytes := int64(math.Exp(spec.logBytesMu + spec.logBytesSd*rng.NormFloat64()))
	if bytes < 64 {
		bytes = 64
	}
	if bytes > 1<<31 {
		bytes = 1 << 31
	}
	packets := bytes/700 + 1 + int64(rng.Intn(4))

	remoteIP := int64(0x0a000000 + rng.Intn(1<<16))
	ephemeral := int64(1024 + rng.Intn(64511))

	// Direction: servers mostly receive requests on the well-known port;
	// workstations mostly originate requests to it.
	inbound := rng.Float64() < 0.7
	if !prof.isServer {
		inbound = rng.Float64() < 0.25
	}
	var srcIP, dstIP, srcPort, dstPort, localPort int64
	if inbound {
		// Remote client -> local server port.
		srcIP, dstIP = remoteIP, prof.localIP
		srcPort, dstPort = ephemeral, spec.port
		localPort = spec.port
	} else {
		// Local client -> remote server port. The response traffic
		// (SrcPort = well-known port) dominates by convention in Anemone's
		// Rx direction; we record the flow from the remote server's
		// perspective half the time to get a realistic SrcPort=80
		// population.
		if rng.Float64() < 0.5 {
			srcIP, dstIP = remoteIP, prof.localIP
			srcPort, dstPort = spec.port, ephemeral
		} else {
			srcIP, dstIP = prof.localIP, remoteIP
			srcPort, dstPort = ephemeral, spec.port
		}
		localPort = ephemeral
	}
	proto := int64(6) // TCP
	if spec.name == "DNS" {
		proto = 17 // UDP
	}

	d.Flow.InsertInts(ts, 300, srcIP, dstIP, srcPort, dstPort,
		localPort, proto, prof.appCodes[a], bytes, packets)
}

// Generate builds the dataset for endsystem index i. Roughly one in eight
// endsystems behaves as a server (most flows inbound to privileged or
// well-known local ports); the rest are workstations (ephemeral local
// ports, working-hours activity).
func Generate(cfg Config, i int) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0xa4e04e))
	prof := profileFor(rng, i)

	// The exact row count is known before the first insert, so the tables
	// are told it: relq reserves the block directory, the zone maps and an
	// open tail of at most one block for that many rows, and allocates
	// each block at its encoded width when it fills — a 12-row table holds
	// 12 rows of capacity, which is what lets a cluster keep one table per
	// endsystem at N=100k+. (The rng draw order is unchanged — profile,
	// then volume, then rows — so generated data is byte-identical.)
	days := cfg.Horizon.Hours() / 24
	total := int(float64(cfg.MeanFlowsPerDay) * days * (0.75 + rng.Float64()*0.5))
	d := &Dataset{Flow: relq.NewTableWithCapacity(FlowSchema(), total)}
	for f := 0; f < total; f++ {
		ts := sampleTimestamp(rng, cfg.Horizon, prof.isServer)
		appendFlow(rng, prof, d, ts)
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
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0x57e4))
	return &Streamer{cfg: cfg, rng: rng, prof: profileFor(rng, i)}
}

// acceptRate mirrors sampleTimestamp's diurnal/weekly acceptance shape.
func acceptRate(t time.Duration, isServer bool) float64 {
	h := avail.HourOfDay(t)
	weekend := avail.IsWeekend(t)
	switch {
	case isServer:
		if h >= 8 && h < 20 {
			return 1.0
		}
		return 0.55
	case weekend:
		return 0.10
	case h >= 9 && h < 18:
		return 1.0
	case h >= 7 && h < 22:
		return 0.35
	default:
		return 0.05
	}
}

// meanAccept is the time-averaged acceptance of the workstation profile;
// it normalizes the streaming rate so a streamer and Generate produce
// comparable volumes.
func meanAccept(isServer bool) float64 {
	var sum float64
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			sum += acceptRate(time.Duration(d)*avail.Day+time.Duration(h)*time.Hour, isServer)
		}
	}
	return sum / (7 * 24)
}

// SkipTo advances the cursor without generating rows — used when the
// endsystem was offline (no data is produced while down).
func (st *Streamer) SkipTo(t time.Duration) {
	if t > st.cursor {
		st.cursor = t
	}
}

// AppendTo generates the rows with timestamps in [cursor, upTo) into the
// dataset and advances the cursor. It returns the number of rows added.
func (st *Streamer) AppendTo(d *Dataset, upTo time.Duration) int {
	if upTo <= st.cursor {
		return 0
	}
	added := 0
	basePerHour := float64(st.cfg.MeanFlowsPerDay) / 24 / meanAccept(st.prof.isServer)
	// Walk hour by hour so the diurnal modulation applies within long
	// windows.
	for st.cursor < upTo {
		hourEnd := st.cursor - st.cursor%time.Hour + time.Hour
		if hourEnd > upTo {
			hourEnd = upTo
		}
		frac := float64(hourEnd-st.cursor) / float64(time.Hour)
		expected := basePerHour * acceptRate(st.cursor, st.prof.isServer) * frac
		n := poisson(st.rng, expected)
		for k := 0; k < n; k++ {
			span := int64(hourEnd-st.cursor) / int64(time.Second)
			if span < 1 {
				span = 1
			}
			ts := int64(st.cursor/time.Second) + st.rng.Int63n(span)
			appendFlow(st.rng, st.prof, d, ts)
			added++
		}
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
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// sampleApp draws an application index from the weighted mix.
func sampleApp(rng *rand.Rand) int {
	x := rng.Float64()
	for i, a := range trafficMix {
		x -= a.weight
		if x < 0 {
			return i
		}
	}
	return len(trafficMix) - 1
}

// sampleTimestamp draws a flow timestamp (in whole seconds) with diurnal
// and weekly modulation: workstation traffic concentrates in working
// hours; server traffic is flatter with a mild daytime bump.
func sampleTimestamp(rng *rand.Rand, horizon time.Duration, isServer bool) int64 {
	for {
		t := time.Duration(rng.Int63n(int64(horizon)))
		h := avail.HourOfDay(t)
		weekend := avail.IsWeekend(t)
		var accept float64
		switch {
		case isServer:
			accept = 0.55
			if h >= 8 && h < 20 {
				accept = 1.0
			}
		case weekend:
			accept = 0.10
		case h >= 9 && h < 18:
			accept = 1.0
		case h >= 7 && h < 22:
			accept = 0.35
		default:
			accept = 0.05
		}
		if rng.Float64() < accept {
			return int64(t / time.Second)
		}
	}
}

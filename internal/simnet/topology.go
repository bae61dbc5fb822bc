package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ids"
)

// Topology is a router-level network map with an all-pairs round-trip-time
// matrix. The paper's packet-level simulations use the "CorpNet topology":
// 298 routers measured from the world-wide Microsoft corporate network, with
// per-link minimum RTTs used as the proximity metric. Endsystems attach to a
// randomly chosen router over a 1 ms LAN link.
type Topology struct {
	numRouters int
	rtt        []time.Duration // numRouters*numRouters matrix, row-major
	lanDelay   time.Duration
	region     []int // router -> failure region (core subtree)
	numRegions int
}

// TopologyConfig parameterizes the synthetic CorpNet-like topology
// generator. Its one value, DefaultTopologyConfig, reproduces the scale and
// RTT mix of the paper's measured topology: a small fully-meshed
// intercontinental core, regional hubs per core site, and building/leaf
// routers per hub.
type TopologyConfig struct {
	coreRouters    int           // fully meshed wide-area core (default 6)
	hubsPerCore    int           // regional hubs attached to each core router (default 6)
	totalRouters   int           // total router budget: what core and hubs leave is leaf routers (default 298, as in CorpNet)
	coreRTTMin     time.Duration // min core-core link RTT (default 20ms)
	coreRTTMax     time.Duration // max core-core link RTT (default 180ms)
	hubRTTMin      time.Duration // min hub uplink RTT (default 2ms)
	hubRTTMax      time.Duration // max hub uplink RTT (default 20ms)
	leafRTTMin     time.Duration // min leaf uplink RTT (default 500µs)
	leafRTTMax     time.Duration // max leaf uplink RTT (default 4ms)
	lanDelay       time.Duration // endsystem-to-router one-way delay (default 1ms, per the paper)
	extraCrossLink int           // random shortcut links between hubs (default 20)
}

// DefaultTopologyConfig returns the CorpNet-like defaults described above.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		coreRouters:    6,
		hubsPerCore:    6,
		totalRouters:   298,
		coreRTTMin:     20 * time.Millisecond,
		coreRTTMax:     180 * time.Millisecond,
		hubRTTMin:      2 * time.Millisecond,
		hubRTTMax:      20 * time.Millisecond,
		leafRTTMin:     500 * time.Microsecond,
		leafRTTMax:     4 * time.Millisecond,
		lanDelay:       time.Millisecond,
		extraCrossLink: 20,
	}
}

// GenerateTopology builds a synthetic hierarchical router topology and
// computes the all-pairs shortest-path RTT matrix. The same seed always
// yields the same topology.
//
// Only the backbone (core and hub routers, 42 by default) runs
// Floyd–Warshall: a leaf router's one link, to its home, starts all its
// paths, so its row is that link plus its home's row — the matrix
// Floyd–Warshall over all n routers gives, cell for cell.
func GenerateTopology(cfg TopologyConfig, seed int64) *Topology {
	if cfg.totalRouters <= 0 {
		cfg = DefaultTopologyConfig()
	}
	rng := rand.New(ids.NewSource(seed))
	n := cfg.totalRouters
	core := min(cfg.coreRouters, n)
	hubs := min(core*cfg.hubsPerCore, n-core)
	// Routers [0, nb) are the backbone; with no core router, router 0 is
	// every other router's home.
	nb := max(core+hubs, 1)

	const inf = time.Duration(1<<62 - 1)
	dist := make([]time.Duration, n*n)
	for i := range nb {
		for j := range nb {
			dist[i*n+j] = inf
		}
		dist[i*n+i] = 0
	}
	link := func(a, b int, rtt time.Duration) {
		if rtt < dist[a*n+b] {
			dist[a*n+b] = rtt
			dist[b*n+a] = rtt
		}
	}
	randRTT := func(lo, hi time.Duration) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	// Fully meshed core.
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			link(i, j, randRTT(cfg.coreRTTMin, cfg.coreRTTMax))
		}
	}
	// Hubs: router indices [core, core+hubs), each homed on a core router.
	for h := 0; h < hubs; h++ {
		link(core+h, h%core, randRTT(cfg.hubRTTMin, cfg.hubRTTMax))
	}
	// Leaves: remaining routers, each homed on a hub (or core if no hubs).
	// Their uplinks join the matrix after the backbone's shortest paths.
	uplink, home := make([]time.Duration, n), make([]int, n)
	for l := core + hubs; l < n; l++ {
		uplink[l] = randRTT(cfg.leafRTTMin, cfg.leafRTTMax)
		if home[l] = (l - core) % max(core, 1); hubs > 0 {
			home[l] = core + (l-core-hubs)%hubs
		}
	}
	// Random hub-hub shortcuts for path diversity.
	for i := 0; i < cfg.extraCrossLink && hubs >= 2; i++ {
		a := core + rng.Intn(hubs)
		b := core + rng.Intn(hubs)
		if a != b {
			link(a, b, randRTT(cfg.hubRTTMin, cfg.coreRTTMax/2))
		}
	}

	// Failure regions: every router belongs to the subtree of one core
	// router. A region models the blast radius of a wide-area router or
	// uplink outage — cutting it partitions every endsystem attached to a
	// router in the subtree from the rest of the network.
	region := make([]int, n)
	for i := range core {
		region[i] = i
	}
	for h := range hubs {
		region[core+h] = h % core
	}
	for l := nb; l < n; l++ {
		region[l] = region[home[l]]
	}

	// Floyd–Warshall over the backbone block of the matrix (42³ steps by
	// default), then each backbone row's leaf columns and each leaf's row.
	// No cell exceeds inf and no sum of two overflows, so a sum with inf
	// never undercuts a cell: the loop needs no guard.
	for k := range nb {
		rowK := dist[k*n : k*n+nb]
		for i := range nb {
			dik, rowI := dist[i*n+k], dist[i*n:i*n+nb]
			for j, dkj := range rowK {
				rowI[j] = min(rowI[j], dik+dkj)
			}
		}
	}
	for b := range nb {
		row := dist[b*n : (b+1)*n]
		for l := nb; l < n; l++ {
			row[l] = uplink[l] + row[home[l]]
		}
	}
	for l := nb; l < n; l++ {
		row, homeRow := dist[l*n:(l+1)*n], dist[home[l]*n:(home[l]+1)*n]
		for j, d := range homeRow {
			row[j] = uplink[l] + d
		}
		row[l] = 0
	}

	return &Topology{numRouters: n, rtt: dist, lanDelay: cfg.lanDelay, region: region, numRegions: max(core, 1)}
}

// UniformTopology returns a degenerate topology in which every router pair
// has the same RTT. Useful for tests where latency must be predictable.
func UniformTopology(numRouters int, rtt, lanDelay time.Duration) *Topology {
	t := &Topology{
		numRouters: numRouters,
		rtt:        make([]time.Duration, numRouters*numRouters),
		lanDelay:   lanDelay,
		region:     make([]int, numRouters),
		numRegions: numRouters,
	}
	for i := 0; i < numRouters; i++ {
		// Each router is its own failure region, so tests can partition at
		// single-router granularity.
		t.region[i] = i
	}
	for i := 0; i < numRouters; i++ {
		for j := 0; j < numRouters; j++ {
			if i != j {
				t.rtt[i*numRouters+j] = rtt
			}
		}
	}
	return t
}

// NumRouters returns the number of routers in the topology.
func (t *Topology) NumRouters() int { return t.numRouters }

// Region returns the failure region a router belongs to. Regions are the
// unit of correlated failure: a fault that cuts region r partitions every
// endsystem attached to a router in r from the rest of the network.
func (t *Topology) Region(router int) int {
	if t.region == nil {
		return 0
	}
	return t.region[router]
}

// NumRegions returns the number of failure regions.
func (t *Topology) NumRegions() int {
	if t.numRegions <= 0 {
		return 1
	}
	return t.numRegions
}

// RouterRTT returns the shortest-path round-trip time between two routers.
func (t *Topology) RouterRTT(a, b int) time.Duration {
	if a < 0 || a >= t.numRouters || b < 0 || b >= t.numRouters {
		panic(fmt.Sprintf("simnet: router index out of range (%d, %d of %d)", a, b, t.numRouters))
	}
	return t.rtt[a*t.numRouters+b]
}

// OneWayDelay returns the one-way endsystem-to-endsystem delay between an
// endsystem attached to router a and one attached to router b: two 1 ms LAN
// hops plus half the router-level RTT. Messages between endsystems on the
// same router still pay the two LAN hops.
func (t *Topology) OneWayDelay(a, b int) time.Duration {
	return 2*t.lanDelay + t.RouterRTT(a, b)/2
}

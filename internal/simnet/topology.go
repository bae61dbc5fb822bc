package simnet

import (
	"fmt"
	"math/rand"
	"time"
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
// generator. The defaults reproduce the scale and RTT mix of the paper's
// measured topology: a small fully-meshed intercontinental core, regional
// hubs per core site, and building/leaf routers per hub.
type TopologyConfig struct {
	CoreRouters    int           // fully meshed wide-area core (default 6)
	HubsPerCore    int           // regional hubs attached to each core router (default 6)
	TotalRouters   int           // total router budget: what core and hubs leave is leaf routers (default 298, as in CorpNet)
	CoreRTTMin     time.Duration // min core-core link RTT (default 20ms)
	CoreRTTMax     time.Duration // max core-core link RTT (default 180ms)
	HubRTTMin      time.Duration // min hub uplink RTT (default 2ms)
	HubRTTMax      time.Duration // max hub uplink RTT (default 20ms)
	LeafRTTMin     time.Duration // min leaf uplink RTT (default 500µs)
	LeafRTTMax     time.Duration // max leaf uplink RTT (default 4ms)
	LANDelay       time.Duration // endsystem-to-router one-way delay (default 1ms, per the paper)
	ExtraCrossLink int           // random shortcut links between hubs (default 20)
}

// DefaultTopologyConfig returns the CorpNet-like defaults described above.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		CoreRouters:    6,
		HubsPerCore:    6,
		TotalRouters:   298,
		CoreRTTMin:     20 * time.Millisecond,
		CoreRTTMax:     180 * time.Millisecond,
		HubRTTMin:      2 * time.Millisecond,
		HubRTTMax:      20 * time.Millisecond,
		LeafRTTMin:     500 * time.Microsecond,
		LeafRTTMax:     4 * time.Millisecond,
		LANDelay:       time.Millisecond,
		ExtraCrossLink: 20,
	}
}

// GenerateTopology builds a synthetic hierarchical router topology and
// computes the all-pairs shortest-path RTT matrix. The same seed always
// yields the same topology.
func GenerateTopology(cfg TopologyConfig, seed int64) *Topology {
	if cfg.TotalRouters <= 0 {
		cfg = DefaultTopologyConfig()
	}
	rng := rand.New(rand.NewSource(seed))
	n := cfg.TotalRouters
	core := cfg.CoreRouters
	if core > n {
		core = n
	}
	hubs := core * cfg.HubsPerCore
	if core+hubs > n {
		hubs = n - core
	}

	const inf = time.Duration(1<<62 - 1)
	dist := make([]time.Duration, n*n)
	for i := range dist {
		dist[i] = inf
	}
	for i := 0; i < n; i++ {
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
			link(i, j, randRTT(cfg.CoreRTTMin, cfg.CoreRTTMax))
		}
	}
	// Hubs: router indices [core, core+hubs), each homed on a core router.
	for h := 0; h < hubs; h++ {
		r := core + h
		parent := h % max(core, 1)
		link(r, parent, randRTT(cfg.HubRTTMin, cfg.HubRTTMax))
	}
	// Leaves: remaining routers, each homed on a hub (or core if no hubs).
	for l := core + hubs; l < n; l++ {
		var parent int
		if hubs > 0 {
			parent = core + (l-core-hubs)%hubs
		} else {
			parent = (l - core) % max(core, 1)
		}
		link(l, parent, randRTT(cfg.LeafRTTMin, cfg.LeafRTTMax))
	}
	// Random hub-hub shortcuts for path diversity.
	for i := 0; i < cfg.ExtraCrossLink && hubs >= 2; i++ {
		a := core + rng.Intn(hubs)
		b := core + rng.Intn(hubs)
		if a != b {
			link(a, b, randRTT(cfg.HubRTTMin, cfg.CoreRTTMax/2))
		}
	}

	// Failure regions: every router belongs to the subtree of one core
	// router. A region models the blast radius of a wide-area router or
	// uplink outage — cutting it partitions every endsystem attached to a
	// router in the subtree from the rest of the network.
	region := make([]int, n)
	if core > 0 {
		for h := 0; h < hubs; h++ {
			region[core+h] = h % core
		}
		for l := core + hubs; l < n; l++ {
			if hubs > 0 {
				region[l] = region[core+(l-core-hubs)%hubs]
			} else {
				region[l] = (l - core) % core
			}
		}
		for i := 0; i < core; i++ {
			region[i] = i
		}
	}

	// Floyd–Warshall all-pairs shortest paths. 298^3 ≈ 2.6e7 steps: cheap.
	for k := 0; k < n; k++ {
		rowK := dist[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := dist[i*n+k]
			if dik == inf {
				continue
			}
			rowI := dist[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if rowK[j] == inf {
					continue
				}
				if d := dik + rowK[j]; d < rowI[j] {
					rowI[j] = d
				}
			}
		}
	}

	return &Topology{numRouters: n, rtt: dist, lanDelay: cfg.LANDelay, region: region, numRegions: max(core, 1)}
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

// MinCrossRegionOneWay returns the smallest one-way endsystem-to-endsystem
// delay between any two routers in different failure regions. It is the
// conservative lookahead of the sharded engine: a message sent by an
// endsystem in one region cannot be delivered in another region sooner
// than this, so shards (one per region) may be advanced independently
// through any window shorter than it. Returns 0 when the topology has a
// single region (no cross-region traffic exists; the engine degrades to
// one shard).
func (t *Topology) MinCrossRegionOneWay() time.Duration {
	min := time.Duration(0)
	found := false
	for a := 0; a < t.numRouters; a++ {
		row := t.rtt[a*t.numRouters : (a+1)*t.numRouters]
		ra := t.Region(a)
		for b := 0; b < t.numRouters; b++ {
			if t.Region(b) == ra {
				continue
			}
			if d := 2*t.lanDelay + row[b]/2; !found || d < min {
				min = d
				found = true
			}
		}
	}
	if !found {
		return 0
	}
	return min
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

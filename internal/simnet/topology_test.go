package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// floydWarshallTopology is the reference GenerateTopology is held to: the
// same links from the same draws, with every link in the matrix and
// Floyd–Warshall over all n routers.
func floydWarshallTopology(cfg TopologyConfig, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.totalRouters
	core := min(cfg.coreRouters, n)
	hubs := min(core*cfg.hubsPerCore, n-core)

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
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			link(i, j, randRTT(cfg.coreRTTMin, cfg.coreRTTMax))
		}
	}
	for h := 0; h < hubs; h++ {
		link(core+h, h%max(core, 1), randRTT(cfg.hubRTTMin, cfg.hubRTTMax))
	}
	for l := core + hubs; l < n; l++ {
		var parent int
		if hubs > 0 {
			parent = core + (l-core-hubs)%hubs
		} else {
			parent = (l - core) % max(core, 1)
		}
		link(l, parent, randRTT(cfg.leafRTTMin, cfg.leafRTTMax))
	}
	for i := 0; i < cfg.extraCrossLink && hubs >= 2; i++ {
		a := core + rng.Intn(hubs)
		b := core + rng.Intn(hubs)
		if a != b {
			link(a, b, randRTT(cfg.hubRTTMin, cfg.coreRTTMax/2))
		}
	}

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
	return &Topology{numRouters: n, rtt: dist, lanDelay: cfg.lanDelay, region: region, numRegions: max(core, 1)}
}

// TestTopologyMatchesFloydWarshall: the backbone-only shortest paths give
// every cell, region and region count Floyd–Warshall over all routers
// gives, on the default topology and on the shapes with no hubs, more core
// routers than routers, no leaves, no cross links, no core and one router.
func TestTopologyMatchesFloydWarshall(t *testing.T) {
	type shape struct {
		name  string
		edit  func(*TopologyConfig)
		seeds int
	}
	shapes := []shape{
		{"default", func(*TopologyConfig) {}, 50},
		{"no hubs", func(c *TopologyConfig) { c.hubsPerCore = 0 }, 5},
		{"core > routers", func(c *TopologyConfig) { c.coreRouters, c.totalRouters = 12, 9 }, 5},
		{"no leaves", func(c *TopologyConfig) { c.totalRouters = c.coreRouters * (1 + c.hubsPerCore) }, 5},
		{"hubs cut short", func(c *TopologyConfig) { c.totalRouters = 30 }, 5},
		{"no cross links", func(c *TopologyConfig) { c.extraCrossLink = 0 }, 5},
		{"no core", func(c *TopologyConfig) { c.coreRouters, c.totalRouters = 0, 9 }, 5},
		{"one router", func(c *TopologyConfig) { c.totalRouters = 1 }, 5},
		{"zero-RTT leaves", func(c *TopologyConfig) { c.leafRTTMin, c.leafRTTMax = 0, 0 }, 5},
	}
	for _, sh := range shapes {
		cfg := DefaultTopologyConfig()
		sh.edit(&cfg)
		for seed := int64(1); seed <= int64(sh.seeds); seed++ {
			got, want := GenerateTopology(cfg, seed), floydWarshallTopology(cfg, seed)
			if got.numRouters != want.numRouters || got.numRegions != want.numRegions || got.lanDelay != want.lanDelay {
				t.Fatalf("%s, seed %d: %d routers in %d regions, reference %d in %d", sh.name, seed,
					got.numRouters, got.numRegions, want.numRouters, want.numRegions)
			}
			for i := range want.rtt {
				if got.rtt[i] != want.rtt[i] {
					n := want.numRouters
					t.Fatalf("%s, seed %d: RTT(%d, %d) = %v, reference %v", sh.name, seed, i/n, i%n, got.rtt[i], want.rtt[i])
				}
			}
			for r := range want.region {
				if got.region[r] != want.region[r] {
					t.Fatalf("%s, seed %d: router %d in region %d, reference %d", sh.name, seed, r, got.region[r], want.region[r])
				}
			}
		}
	}
}

var topologySink *Topology

// BenchmarkGenerateTopology is the default 298-router topology: its draws,
// its shortest paths and its regions.
func BenchmarkGenerateTopology(b *testing.B) {
	for i := range b.N {
		topologySink = GenerateTopology(DefaultTopologyConfig(), int64(i))
	}
}

func TestGenerateTopologyDeterministic(t *testing.T) {
	a := GenerateTopology(DefaultTopologyConfig(), 1)
	b := GenerateTopology(DefaultTopologyConfig(), 1)
	if a.NumRouters() != 298 {
		t.Fatalf("routers = %d, want 298", a.NumRouters())
	}
	for i := 0; i < a.NumRouters(); i += 17 {
		for j := 0; j < a.NumRouters(); j += 13 {
			if a.RouterRTT(i, j) != b.RouterRTT(i, j) {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
}

func TestTopologyConnectedAndSymmetric(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 2)
	n := topo.NumRouters()
	const inf = time.Duration(1<<62 - 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := topo.RouterRTT(i, j)
			if d >= inf {
				t.Fatalf("routers %d and %d unreachable", i, j)
			}
			if d != topo.RouterRTT(j, i) {
				t.Fatalf("asymmetric RTT between %d and %d", i, j)
			}
			if i == j && d != 0 {
				t.Fatalf("self RTT of %d is %v", i, d)
			}
			if i != j && d <= 0 {
				t.Fatalf("non-positive RTT %v between %d and %d", d, i, j)
			}
		}
	}
}

func TestTopologyTriangleInequality(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 3)
	n := topo.NumRouters()
	// Shortest-path metric must satisfy the triangle inequality.
	for i := 0; i < n; i += 11 {
		for j := 0; j < n; j += 7 {
			for k := 0; k < n; k += 13 {
				if topo.RouterRTT(i, j) > topo.RouterRTT(i, k)+topo.RouterRTT(k, j) {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestTopologyRTTScale(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 4)
	n := topo.NumRouters()
	var sum time.Duration
	var count int64
	maxRTT := time.Duration(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := topo.RouterRTT(i, j)
			sum += d
			count++
			if d > maxRTT {
				maxRTT = d
			}
		}
	}
	mean := time.Duration(int64(sum) / count)
	// A worldwide corporate network: mean tens of ms, max under a second.
	if mean < 2*time.Millisecond || mean > 500*time.Millisecond {
		t.Fatalf("mean RTT %v outside plausible corporate-network range", mean)
	}
	if maxRTT > time.Second {
		t.Fatalf("max RTT %v too large", maxRTT)
	}
}

func TestUniformTopology(t *testing.T) {
	topo := UniformTopology(3, 10*time.Millisecond, time.Millisecond)
	if topo.RouterRTT(0, 1) != 10*time.Millisecond {
		t.Fatal("uniform RTT wrong")
	}
	if topo.RouterRTT(1, 1) != 0 {
		t.Fatal("self RTT nonzero")
	}
	if topo.OneWayDelay(0, 2) != 7*time.Millisecond {
		t.Fatalf("one-way = %v, want 7ms", topo.OneWayDelay(0, 2))
	}
	if topo.OneWayDelay(1, 1) != 2*time.Millisecond {
		t.Fatalf("same-router one-way = %v, want 2ms", topo.OneWayDelay(1, 1))
	}
}

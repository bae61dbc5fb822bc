package core

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
)

// Query lifetime: "incremental results will thus continue to arrive for
// any query until it times out or is explicitly canceled" (§2).

func TestQueryTTLExpiry(t *testing.T) {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(40, 3*24*time.Hour, 31))
	cfg := DefaultClusterConfig(trace, 31)
	cfg.Workload.MeanFlowsPerDay = 30
	cfg.Node.Agg.QueryTTL = 2 * time.Hour
	c := NewCluster(cfg)
	c.RunUntil(24 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if _, ok := lastUpdate(h); !ok {
		t.Fatal("no results before expiry")
	}

	// Well past the TTL: tree state must be reclaimed everywhere and the
	// query no longer advertised to joiners.
	c.RunUntil(c.Sched.Now() + 6*time.Hour)
	for i, n := range c.Nodes {
		if n.tree.NumVertices() != 0 {
			t.Fatalf("node %d still holds %d vertices after TTL", i, n.tree.NumVertices())
		}
		if len(n.tree.ActiveQueries()) != 0 {
			t.Fatalf("node %d still advertises expired query", i)
		}
	}
	// No new results arrive after expiry (+ a grace period for in-flight
	// refreshes at the boundary).
	n := len(h.Results)
	c.RunUntil(c.Sched.Now() + 4*time.Hour)
	if len(h.Results) > n {
		t.Fatalf("results still arriving after TTL: %d -> %d", n, len(h.Results))
	}
}

func TestExplicitCancelStopsResults(t *testing.T) {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(40, 3*24*time.Hour, 32))
	cfg := DefaultClusterConfig(trace, 32)
	cfg.Workload.MeanFlowsPerDay = 30
	c := NewCluster(cfg)
	c.RunUntil(24 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if _, ok := lastUpdate(h); !ok {
		t.Fatal("no results before cancel")
	}
	c.CancelQuery(h, inj)
	n := len(h.Results)
	c.RunUntil(c.Sched.Now() + 6*time.Hour)
	if len(h.Results) > n {
		t.Fatalf("results delivered after cancel: %d -> %d", n, len(h.Results))
	}
}

func TestContinuousQueryStopsAtTTL(t *testing.T) {
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(30, 3*24*time.Hour, 33))
	cfg := DefaultClusterConfig(trace, 33)
	cfg.Workload.MeanFlowsPerDay = 40
	cfg.Feed = FeedConfig{Enabled: true, Period: 30 * time.Minute}
	cfg.Node.Agg.QueryTTL = 3 * time.Hour
	c := NewCluster(cfg)
	c.RunUntil(12 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectContinuousQuery(inj, q)
	c.RunUntil(c.Sched.Now() + 2*time.Hour)
	during := len(h.Results)
	if during == 0 {
		t.Fatal("no results while active")
	}
	// Past the TTL: the standing re-execution must stop.
	c.RunUntil(c.Sched.Now() + 8*time.Hour)
	after := len(h.Results)
	c.RunUntil(c.Sched.Now() + 4*time.Hour)
	if len(h.Results) > after {
		t.Fatalf("continuous query still producing after TTL: %d -> %d", after, len(h.Results))
	}
}

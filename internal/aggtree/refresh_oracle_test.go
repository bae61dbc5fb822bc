package aggtree_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/aggtree"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relq"
)

// The refresh chains schedule an event only at ticks that can act: a
// backup's sleeps until its expiry tick, an idle primary's until its next
// safety pass, and promote pulls a backup's chain in. That rests on one
// invariant, "a root vertex with children is already primary": a backup's
// chain would otherwise sleep through the tick at which the old
// per-vertex chain made it primary and re-propagated. The oracle shadows
// every chain with the old one and fails on any tick it would have acted
// on that the new chain skipped.

func checkOracle(t *testing.T, o *aggtree.RefreshOracle) {
	t.Helper()
	faults := o.Close()
	t.Logf("refresh events %d, old chain's ticks %d, of which acting %d", o.Ticks, o.OldTicks, o.Acting)
	if len(faults) > 0 {
		t.Fatalf("the refresh chains skipped ticks the old chains would have acted on:\n%s",
			strings.Join(faults, "\n"))
	}
	if o.Acting == 0 || o.Ticks >= o.OldTicks {
		t.Fatalf("the run exercised nothing: %d refresh events against the old chains' %d, %d acting",
			o.Ticks, o.OldTicks, o.Acting)
	}
}

// TestRefreshOracleChurn runs the oracle over 80 endsystems on the paper's
// high-churn trace with 5% message loss, a TTL short enough for the
// queries to expire inside the run.
func TestRefreshOracleChurn(t *testing.T) {
	const n, seed = 80, 23
	horizon := 20 * time.Hour
	cfg := core.DefaultClusterConfig(avail.GenerateGnutella(avail.DefaultGnutellaConfig(n, horizon, seed)), seed)
	cfg.Net.LossRate = 0.05
	cfg.Workload.MeanFlowsPerDay = 30
	cfg.Node.Agg.QueryTTL = 4 * time.Hour
	o := aggtree.InstallRefreshOracle()
	defer o.Close()
	c := core.NewCluster(cfg)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	for _, at := range []time.Duration{6 * time.Hour, 8 * time.Hour, 11 * time.Hour} {
		c.RunUntil(at)
		from, ok := c.FirstLive()
		if !ok {
			t.Fatal("no live endsystem to inject at")
		}
		c.InjectQuery(from, q)
	}
	c.RunUntil(horizon)
	checkOracle(t, o)
}

// TestRefreshOracleChaos runs the oracle over the flap, partition and
// mixed smoke worlds, whose reports stay what they were (a chaos report
// fails on any invariant violation).
func TestRefreshOracleChaos(t *testing.T) {
	for _, name := range []string{"flap", "partition", "mixed"} {
		t.Run(name, func(t *testing.T) {
			s, _ := fault.Builtin(name, true)
			o := aggtree.InstallRefreshOracle()
			defer o.Close()
			if r := core.RunChaos(core.DefaultChaosConfig(s, 1, true)); !r.OK() {
				t.Fatalf("%s chaos run failed with the oracle on", name)
			}
			checkOracle(t, o)
		})
	}
}

// TestRefreshTicksWhereTheyAct is the refresh chains' budget: on a quiet
// cluster with persistent queries they run no more events than a safety
// pass per primary every third period (plus its first tick and its expiry
// tick), the dirty ticks, and one expiry tick per backup. The per-vertex
// chains they replaced ticked every period at every copy of every vertex.
func TestRefreshTicksWhereTheyAct(t *testing.T) {
	const n, seed = 64, 7
	horizon := 5 * time.Hour
	tr := &avail.Trace{Horizon: horizon, Profiles: make([]*avail.Profile, n)}
	for i := range tr.Profiles {
		tr.Profiles[i] = &avail.Profile{Up: []avail.Interval{{Start: 0, End: horizon}}}
	}
	cfg := core.DefaultClusterConfig(tr, seed)
	cfg.Node.Agg.QueryTTL = 3 * time.Hour
	o := aggtree.InstallRefreshOracle()
	defer o.Close()
	c := core.NewCluster(cfg)
	c.RunUntil(30 * time.Minute)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM Flow",
		"SELECT SUM(Bytes) FROM Flow WHERE DstPort = 80",
		"SELECT MAX(Packets) FROM Flow",
	} {
		from, _ := c.FirstLive()
		c.InjectContinuousQuery(from, relq.MustParse(sql))
	}
	c.RunUntil(horizon)

	period := cfg.Node.Agg.RefreshPeriod
	periods := int(horizon / period)
	primaries, backups := o.Roles()
	dirty := int(c.Obs().Registry().Counter("aggtree_refresh_repairs").Value())
	budget := primaries*(periods/3+2) + dirty + backups
	t.Logf("%d primaries, %d backups, %d periods, %d dirty ticks: %d refresh events, budget %d, old chains %d",
		primaries, backups, periods, dirty, o.Ticks, budget, o.OldTicks)
	if o.Ticks > budget {
		t.Fatalf("%d refresh events, above the budget of %d", o.Ticks, budget)
	}
	if primaries == 0 || backups == 0 {
		t.Fatalf("%d primaries and %d backups: the trees did not form", primaries, backups)
	}
	checkOracle(t, o)
}

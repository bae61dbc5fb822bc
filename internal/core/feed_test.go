package core

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// feedCluster builds a cluster with live data updates enabled.
func feedCluster(t *testing.T, n int, horizon time.Duration, seed int64) *Cluster {
	t.Helper()
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, horizon, seed))
	cfg := DefaultClusterConfig(trace, seed)
	cfg.Workload.MeanFlowsPerDay = 60
	cfg.Feed = FeedConfig{Enabled: true, Period: 30 * time.Minute}
	return NewCluster(cfg)
}

func TestFeedAccruesData(t *testing.T) {
	c := feedCluster(t, 40, 2*24*time.Hour, 21)
	// At t=0 everyone is empty.
	for _, n := range c.Nodes {
		if n.table.NumRows() != 0 {
			t.Fatal("feed cluster must start empty")
		}
	}
	c.RunUntil(24 * time.Hour)
	var rows int
	for _, n := range c.Nodes {
		rows += n.table.NumRows()
	}
	// 40 endsystems × 60 rows/day × 1 day × availability ≈ 1900.
	if rows < 500 || rows > 5000 {
		t.Fatalf("accrued %d rows after a day, want ≈1900", rows)
	}
	// Timestamps must respect virtual time (nothing from the future).
	nowSecs := int64((24 * time.Hour) / time.Second)
	for i, n := range c.Nodes {
		cnt, err := n.table.CountMatching(
			relq.MustParse("SELECT COUNT(*) FROM Flow WHERE ts > "+itoa(nowSecs)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if cnt > 0 {
			t.Fatalf("node %d has %d rows from the future", i, cnt)
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestFeedNoDataWhileDown(t *testing.T) {
	c := feedCluster(t, 30, 2*24*time.Hour, 22)
	c.RunUntil(36 * time.Hour)
	// Every row's timestamp must fall within one of its endsystem's up
	// intervals (give a feed-period of slack at interval edges).
	slack := int64((30 * time.Minute) / time.Second)
	for i, n := range c.Nodes {
		prof := c.cfg.Trace.Profiles[i]
		for _, ts := range n.table.ColumnValues("ts") {
			at := time.Duration(ts) * time.Second
			if !prof.AvailableAt(at) &&
				!prof.AvailableAt(at+time.Duration(slack)*time.Second) &&
				!prof.AvailableAt(at-time.Duration(slack)*time.Second) {
				t.Fatalf("node %d has a row at %v while down", i, at)
			}
		}
	}
}

func TestFeedRefreshesMetadata(t *testing.T) {
	// Summaries must track the growing data: an unavailable endsystem's
	// replicated estimate should reflect rows it accrued before dying.
	c := feedCluster(t, 40, 2*24*time.Hour, 23)
	c.RunUntil(20 * time.Hour)
	// Find a node that is up and has accrued rows, then take it down.
	var victim *Node
	for _, n := range c.Nodes {
		if n.Alive() && n.table.NumRows() > 10 {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Fatal("no candidate victim")
	}
	rows := victim.table.NumRows()
	victim.GoDown()
	c.RunUntil(c.Sched.Now() + 10*time.Minute)

	// Some live replica must estimate close to the victim's true rows.
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	found := false
	for _, ref := range c.Ring.LiveClosest(victim.pn.ID(), 8, nil) {
		rec := c.Nodes[ref.EP].meta.Lookup(victim.pn.ID())
		if rec == nil || rec.Summary == nil {
			continue
		}
		est := rec.Summary.EstimateRows(q, 0)
		if est > 0.7*float64(rows) && est < 1.3*float64(rows) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no replica has a fresh summary for the victim (%d rows)", rows)
	}
}

func TestContinuousQueryTracksGrowingData(t *testing.T) {
	c := feedCluster(t, 40, 3*24*time.Hour, 24)
	c.RunUntil(12 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectContinuousQuery(inj, q)
	c.RunUntil(13 * time.Hour)
	first, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no initial results")
	}
	// A day later the standing query must have grown with the data.
	c.RunUntil(40 * time.Hour)
	last, _ := lastUpdate(h)
	if last.Partial.Count <= first.Partial.Count {
		t.Fatalf("continuous result did not grow: %d -> %d",
			first.Partial.Count, last.Partial.Count)
	}
	// And it must track the true total reasonably closely.
	total := c.TrueRelevantRows(q)
	if float64(last.Partial.Count) < 0.7*float64(total) {
		t.Fatalf("continuous result %d lags true total %d", last.Partial.Count, total)
	}
	if last.Partial.Count > total {
		t.Fatalf("continuous result %d exceeds true total %d", last.Partial.Count, total)
	}
}

func TestOneShotQueryDoesNotTrackGrowth(t *testing.T) {
	// A plain (one-shot) query over a feed cluster: each endsystem
	// contributes a snapshot; contributions are not refreshed as data
	// grows (only endsystems cycling down/up resubmit their snapshot).
	c := feedCluster(t, 30, 2*24*time.Hour, 25)
	c.RunUntil(12 * time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)
	c.RunUntil(13 * time.Hour)
	first, ok := lastUpdate(h)
	if !ok {
		t.Fatal("no results")
	}
	before := c.TrueRelevantRows(q)
	c.RunUntil(20 * time.Hour)
	last, _ := lastUpdate(h)
	total := c.TrueRelevantRows(q)
	// The one-shot result may grow a little (rejoining endsystems submit
	// fresher snapshots) but must stay below the live total, which keeps
	// growing underneath it, and grow by less than it.
	if last.Partial.Count > total {
		t.Fatalf("one-shot result %d exceeds current total %d", last.Partial.Count, total)
	}
	if grew, live := last.Partial.Count-first.Partial.Count, total-before; grew >= live {
		t.Fatalf("one-shot result grew by %d rows from 13 h to 20 h, the live total by %d: it tracks growth", grew, live)
	}
}

func TestFeedBeaconsCheaper(t *testing.T) {
	// With live updates, a summary changes every 30 minutes at most, so
	// some 17.5-minute rounds find it unchanged and send beacons. Every
	// change reaches a member in its round's full push: at zero loss no
	// beacon finds a stale copy, and nobody pulls.
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(40, 36*time.Hour, 26))
	cfg := DefaultClusterConfig(trace, 26)
	cfg.Workload.MeanFlowsPerDay = 60
	cfg.Feed = FeedConfig{Enabled: true, Period: 30 * time.Minute}
	c := NewCluster(cfg)
	c.RunUntil(36 * time.Hour)
	beacons := c.Obs().Counter("meta_beacons").Value()
	pulls := c.Obs().Counter("meta_pulls").Value()
	maint := c.Net.Stats().TotalTx(simnet.ClassMaintenance)
	// The same cluster's maintenance bytes while every round re-sent the
	// full record.
	const fullPushBytes = 55_004_294
	t.Logf("%d pushes, %d beacons, %d pulls; %.0f maintenance bytes (%.1f%% of full pushes)",
		c.Obs().Counter("meta_pushes").Value(), beacons, pulls, maint, 100*maint/fullPushBytes)
	if beacons == 0 {
		t.Error("no round sent a beacon")
	}
	if pulls != 0 {
		t.Errorf("%d pulls at zero loss", pulls)
	}
	if maint >= fullPushBytes {
		t.Errorf("maintenance %.0f B, not below the full-push figure %d B", maint, fullPushBytes)
	}
}

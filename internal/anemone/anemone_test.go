package anemone

import (
	"math"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/avail"
	"repro/internal/relq"
)

func genOne(t *testing.T, i int) *Dataset {
	t.Helper()
	cfg := DefaultConfig(avail.Week, 1)
	return Generate(cfg, i)
}

func TestGenerateDeterministic(t *testing.T) {
	a := genOne(t, 3)
	b := genOne(t, 3)
	if a.Flow.NumRows() != b.Flow.NumRows() {
		t.Fatal("same endsystem generated different row counts")
	}
	pa, _ := a.Flow.Execute(relq.MustParse("SELECT SUM(Bytes) FROM Flow"), 0)
	pb, _ := b.Flow.Execute(relq.MustParse("SELECT SUM(Bytes) FROM Flow"), 0)
	if pa.Sum != pb.Sum {
		t.Fatal("same endsystem generated different data")
	}
	c := genOne(t, 4)
	pc, _ := c.Flow.Execute(relq.MustParse("SELECT SUM(Bytes) FROM Flow"), 0)
	if pa.Sum == pc.Sum {
		t.Fatal("different endsystems generated identical data")
	}
}

func TestGenerateRowVolume(t *testing.T) {
	d := genOne(t, 0)
	rows := d.Flow.NumRows()
	// 2000/day for 7 days, ±25% endsystem factor.
	if rows < 9000 || rows > 22000 {
		t.Fatalf("rows = %d, want ≈14000", rows)
	}
}

// TestStorageBudget holds a generated Flow table to what its rows need:
// the few rows of a quiet endsystem must not reserve a block, and a table
// the size of the scan benchmark's must store its ports, protocol ids and
// clustered counters narrow (88 bytes a row at full width).
func TestStorageBudget(t *testing.T) {
	small := Generate(Config{Seed: 1, Horizon: 6 * time.Hour, MeanFlowsPerDay: 50}, 0).Flow
	if rows, got := small.NumRows(), small.StorageBytes(); rows < 8 || rows > 16 || got > 2<<10 {
		t.Errorf("a %d-row Flow table holds %d bytes of storage, want about 12 rows in at most 2 KB", rows, got)
	}
	big := Generate(Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}, 0).Flow
	rows := big.NumRows()
	if perRow := float64(big.StorageBytes()) / float64(rows); rows < 22_000 || rows > 38_000 || perRow > 40 {
		t.Errorf("a %d-row Flow table holds %.1f bytes of storage a row, want about 30,000 rows at 40 or less", rows, perRow)
	}
}

func TestPaperQueriesSelectPlausibleFractions(t *testing.T) {
	d := genOne(t, 1)
	total := float64(d.Flow.NumRows())
	cases := []struct {
		sql      string
		min, max float64 // fraction of rows selected
	}{
		{"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80", 0.03, 0.35},
		{"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000", 0.05, 0.50},
		{"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'", 0.10, 0.35},
		{"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024", 0.03, 0.60},
	}
	for _, c := range cases {
		n, err := d.Flow.CountMatching(relq.MustParse(c.sql), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		frac := float64(n) / total
		if frac < c.min || frac > c.max {
			t.Errorf("%s: selects %.3f of rows, want [%.2f, %.2f]", c.sql, frac, c.min, c.max)
		}
	}
}

func TestTimestampsWithinHorizonAndDiurnal(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 2)
	d := Generate(cfg, 7)
	q := relq.MustParse("SELECT MIN(ts) FROM Flow")
	pmin, _ := d.Flow.Execute(q, 0)
	pmax, _ := d.Flow.Execute(relq.MustParse("SELECT MAX(ts) FROM Flow"), 0)
	if pmin.Final(agg.Min) < 0 || pmax.Final(agg.Max) >= avail.Week.Seconds() {
		t.Fatalf("timestamps outside horizon: [%v, %v]", pmin.Final(agg.Min), pmax.Final(agg.Max))
	}
	// Count flows in working hours (Tue 9-18) vs night (Tue 0-5): strong skew.
	day := int64((24 * time.Hour).Seconds())
	tue := 1 * day
	cnt := func(lo, hi int64) int64 {
		q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE ts >= NOW() AND ts < NOW() + 1")
		// Simpler: direct predicate values.
		_ = q
		n, _ := d.Flow.CountMatching(relq.MustParse(
			"SELECT COUNT(*) FROM Flow WHERE ts >= "+itoa(lo)+" AND ts < "+itoa(hi)), 0)
		return n
	}
	work := cnt(tue+9*3600, tue+18*3600)
	night := cnt(tue, tue+5*3600)
	if work < 3*night {
		t.Errorf("diurnal skew too weak: work=%d night=%d", work, night)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestSummaryAccuracyOnWorkload(t *testing.T) {
	// The crux of §4.3.2: row-count estimation from histograms must be
	// accurate for the paper's queries (paper reports <0.5% on totals;
	// per-endsystem we allow more, since each endsystem's table is small).
	d := genOne(t, 5)
	sum := d.Summary()
	for _, sql := range []string{
		"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
		"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
		"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
		"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
	} {
		q := relq.MustParse(sql)
		exact, err := d.Flow.CountMatching(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		est := sum.EstimateRows(q, 0)
		rel := math.Abs(est-float64(exact)) / math.Max(1, float64(exact))
		if rel > 0.08 {
			t.Errorf("%s: est %.0f vs exact %d (%.1f%% error)", sql, est, exact, rel*100)
		}
	}
}

func TestPopulationTotalEstimateAccuracy(t *testing.T) {
	// The paper's claim is about the population: "the prediction error for
	// total row count is under 0.5% in all cases". Per-endsystem errors
	// largely cancel when summed, so the aggregate estimate must be tight.
	cfg := DefaultConfig(avail.Week, 9)
	cfg.MeanFlowsPerDay = 400
	queries := []string{
		"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
		"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
		"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
		"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
	}
	exact := make([]float64, len(queries))
	est := make([]float64, len(queries))
	for i := 0; i < 80; i++ {
		d := Generate(cfg, i)
		sum := d.Summary()
		for j, sql := range queries {
			q := relq.MustParse(sql)
			n, err := d.Flow.CountMatching(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			exact[j] += float64(n)
			est[j] += sum.EstimateRows(q, 0)
		}
	}
	for j, sql := range queries {
		rel := math.Abs(est[j]-exact[j]) / exact[j]
		if rel > 0.03 {
			t.Errorf("%s: population est %.0f vs exact %.0f (%.2f%% error)",
				sql, est[j], exact[j], rel*100)
		}
	}
}

func TestSummarySizeOrderOfMagnitude(t *testing.T) {
	// Paper: h = 6,473 bytes for the five indexed-column histograms.
	d := genOne(t, 6)
	size := d.Summary().EncodedSize()
	if size < 500 || size > 20000 {
		t.Errorf("summary size = %d bytes, want same order as 6,473", size)
	}
}

func TestServerWorkstationMix(t *testing.T) {
	// Across many endsystems, some must be servers (high privileged-port
	// fraction) and most workstations.
	cfg := DefaultConfig(2*24*time.Hour, 4)
	cfg.MeanFlowsPerDay = 300
	servers := 0
	n := 64
	for i := 0; i < n; i++ {
		d := Generate(cfg, i)
		priv, _ := d.Flow.CountMatching(relq.MustParse(
			"SELECT COUNT(*) FROM Flow WHERE LocalPort < 1024"), 0)
		if float64(priv)/float64(d.Flow.NumRows()) > 0.5 {
			servers++
		}
	}
	if servers == 0 || servers > n/3 {
		t.Errorf("servers = %d of %d, want a small but nonzero fraction", servers, n)
	}
}

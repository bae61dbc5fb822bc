package anemone

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/relq"
)

// relqStateCeiling is about 10% above what TestRelqStatePerEndsystem
// measures (3,734 bytes on go1.24 linux/amd64). It read 6,230 while every
// table held a private copy of the Flow column list (352 bytes) and a
// FIFO cache of the plans it had bound, a map sized for 32, and every
// summary kept its tables and columns in maps.
const relqStateCeiling = 4100

// relqStateHold keeps TestRelqStatePerEndsystem's endsystems reachable
// after the test returns, so go test -memprofile attributes their bytes.
var relqStateHold struct {
	tables []*relq.Table
	sums   []*relq.Summary
}

// TestRelqStatePerEndsystem is relq's share of the memory budget: the live
// bytes of one steady2k-shaped endsystem's table (50 flows a day over six
// hours, about a dozen rows), its summary, and the plans of the four paper
// queries executed and counted on it, as every endsystem of a cluster
// executes the same parsed queries.
func TestRelqStatePerEndsystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count toward HeapAlloc")
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	queries := make([]*relq.Query, 0, 4)
	for _, sql := range estimateQueries[8:] {
		queries = append(queries, relq.MustParse(sql))
	}
	cfg := Config{Seed: 1, Horizon: 6 * time.Hour, MeanFlowsPerDay: 50}
	const n = 1024
	tables := make([]*relq.Table, n)
	sums := make([]*relq.Summary, n)
	before := liveHeap()
	for i := range tables {
		d := Generate(cfg, i)
		sums[i] = d.Summary()
		for _, q := range queries {
			if _, err := d.Flow.Execute(q, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Flow.CountMatching(q, 0); err != nil {
				t.Fatal(err)
			}
		}
		tables[i] = d.Flow
	}
	per := int64(liveHeap()-before) / n
	relqStateHold.tables, relqStateHold.sums = tables, sums
	t.Logf("relq holds %d bytes per endsystem", per)
	if per > relqStateCeiling {
		t.Errorf("relq holds %d bytes per endsystem, ceiling %d", per, relqStateCeiling)
	}
}

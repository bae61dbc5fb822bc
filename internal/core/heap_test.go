package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/relq"
	"repro/internal/simnet"
)

// heapPerEndsystemCeiling is about twice what TestHeapPerEndsystem measures
// (31 KB on go1.24 linux/amd64). The quiet cluster's shape is the steady2k
// benchmark's — 50 flows a day, a dozen rows a table — where rounding each
// table's reservation up to a block held 180 KB per endsystem that no row
// ever touched: the same test read 208 KB then.
const heapPerEndsystemCeiling = 70 << 10

// allocPerQueryCeiling is about 10% above what TestAllocPerQuery measures
// (6.5 KB on go1.24 linux/amd64; runs differ by half a percent). It read
// 6.95 KB while every range task that might report anything carried all 72
// predictor buckets, and every scheduled timer allocated its own handle,
// 7.04 KB while a vertex primary replicated every child update at every
// level to its backups the moment it arrived, 7.5 KB while every leaf sent
// its contribution five times whether or not the first copy arrived, and
// 8.8 KB when an endsystem kept a query in
// nine tables across three packages instead of one record and
// core.Node.executed (DESIGN.md, "Per-query state on an endsystem").
// Before that, every dissemination range task carried its own 592-byte
// predictor, empty or not, and every aggregation vertex kept its children
// in a map (11.4 and 11.5 KB). At N=256 the tree has fewer empty ranges
// than at the benchmark's N=1000, so those steps are 15-27% apart.
const allocPerQueryCeiling = 7200

// heapTestCluster keeps TestHeapPerEndsystem's cluster reachable after the
// test returns: go test -memprofile collects before it writes, and that
// profile is how the bytes under the ceiling are attributed to layers
// (DESIGN.md, "Memory per endsystem").
var heapTestCluster *Cluster

// TestHeapPerEndsystem is the tier-1 memory budget: the live heap of a
// quiet cluster after one query has run to completion, per endsystem. The
// simulator holds every endsystem's state at once, so this number is what
// decides how large a run fits.
func TestHeapPerEndsystem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count toward HeapAlloc")
	}
	// What earlier tests left behind (pooled buffers outlive one
	// collection) is not this cluster's: measure the growth.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()

	const n = 256
	c := smallCluster(t, n, 6*time.Hour, 17)
	c.RunUntil(time.Hour)
	q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	h := c.InjectQuery(findLiveInjector(t, c), q)
	c.RunUntil(c.Sched.Now() + 30*time.Minute)
	if last, ok := lastUpdate(h); !ok || last.Contributors == 0 {
		t.Fatal("the query returned nothing")
	}

	per := int64(liveHeap()-before) / n
	t.Logf("live heap %d KB per endsystem", per>>10)
	if per > heapPerEndsystemCeiling {
		t.Errorf("live heap is %d KB per endsystem, ceiling %d KB", per>>10, heapPerEndsystemCeiling>>10)
	}
	heapTestCluster = c
}

// queryBytesPerEndsystemCeiling is about 10% above what
// TestQueryBytesPerEndsystem measures (1,171 bytes). The number is exact per
// seed, so the margin is room for protocol changes, not noise; it read
// 1,381 when a burst of child updates reached a vertex's backups one
// message an update a level instead of as one table, 1,677 when a leaf sent its contribution five times instead of until
// acknowledged, and 3,011 when every response carried a fixed 592-byte
// predictor.
const queryBytesPerEndsystemCeiling = 1290

// querySpan builds the budget tests' cluster, runs it for an hour, and
// measures ten more virtual minutes — with one query injected at their
// start, or quiet: the bytes the simulator allocated and the query-class
// bytes the endsystems sent.
func querySpan(t *testing.T, withQuery bool) (alloc uint64, queryBytes float64, c *Cluster) {
	t.Helper()
	c = smallCluster(t, 256, 6*time.Hour, 17)
	c.RunUntil(time.Hour)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := c.Net.Stats().TotalTx(simnet.ClassQuery)
	var h *QueryHandle
	if withQuery {
		q := relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
		h = c.InjectQuery(findLiveInjector(t, c), q)
	}
	c.RunUntil(c.Sched.Now() + 10*time.Minute)
	runtime.ReadMemStats(&after)
	if h != nil {
		if last, ok := lastUpdate(h); !ok || last.Contributors == 0 {
			t.Fatal("the query returned nothing")
		}
	}
	return after.TotalAlloc - before.TotalAlloc, c.Net.Stats().TotalTx(simnet.ClassQuery) - sent, c
}

// TestAllocPerQuery is the tier-1 allocation budget: what one query makes
// the simulator allocate in its first ten virtual minutes — dissemination,
// execution, the aggregation tree's build-up and first re-assertions — per
// endsystem. It is runtime.MemStats.TotalAlloc over that span less the
// same span of the same cluster with no query, so the maintenance traffic
// both runs share cancels. Allocation in the window, not live heap, is
// what sets how often the collector runs under a query stream.
func TestAllocPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations count toward TotalAlloc")
	}
	const n = 256
	quiet, _, _ := querySpan(t, false)
	with, _, _ := querySpan(t, true)
	per := (int64(with) - int64(quiet)) / n
	t.Logf("one query allocates %d bytes per endsystem (the quiet span: %d)", per, int64(quiet)/n)
	if per > allocPerQueryCeiling {
		t.Errorf("one query allocates %d bytes per endsystem, ceiling %d", per, allocPerQueryCeiling)
	}
}

// TestQueryBytesPerEndsystem is the tier-1 wire budget, the paper's own
// overhead metric (Figure 9): the query-class bytes one query makes the
// endsystems send in its first ten virtual minutes — dissemination, the
// predictor's way back, submissions, their acks and replication — per
// endsystem, less the same span with no query. The dissem counters
// put the predictor's share beside it.
func TestQueryBytesPerEndsystem(t *testing.T) {
	const n = 256
	_, quiet, _ := querySpan(t, false)
	_, with, c := querySpan(t, true)
	per := (with - quiet) / n
	o := c.Obs()
	resps, empty := o.Counter("dissem_resps").Value(), o.Counter("dissem_resps_empty").Value()
	t.Logf("one query sends %.0f query bytes per endsystem (the quiet span: %.0f); "+
		"%d responses carried a predictor, %d of them the empty one, %d predictor bytes in all",
		per, quiet/n, resps, empty, o.Counter("dissem_predictor_bytes").Value())
	if per > queryBytesPerEndsystemCeiling {
		t.Errorf("one query sends %.0f query bytes per endsystem, ceiling %d", per, queryBytesPerEndsystemCeiling)
	}
}

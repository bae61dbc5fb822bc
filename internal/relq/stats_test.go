package relq

import (
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/obs"
)

// statsTable builds a 4-block table whose ts column is monotone (so ts
// ranges can prune blocks) and wires fresh counters, returning both.
func statsTable(t *testing.T) (*Table, *obs.Obs) {
	t.Helper()
	schema := Schema{Name: "T", Columns: []Column{
		{Name: "ts", Type: TInt, Indexed: true},
		{Name: "v", Type: TInt},
	}}
	tbl := NewTable(schema)
	for r := 0; r < 4*BlockSize; r++ {
		if err := tbl.InsertInts(int64(r), int64(r%97)); err != nil {
			t.Fatal(err)
		}
	}
	o := obs.New()
	tbl.SetExecStats(StandardExecStats(o))
	return tbl, o
}

func TestExecStatsCounters(t *testing.T) {
	tbl, o := statsTable(t)
	// ts >= 3*BlockSize selects exactly the last block; the first three
	// blocks are zone-prunable, and the zone map proves the last block
	// matches in full (zoneAll), so no rows are kernel-scanned at all.
	q := MustParse("SELECT COUNT(*) FROM T WHERE ts >= 6144")
	part, err := tbl.Execute(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.Count != int64(BlockSize) {
		t.Fatalf("count = %d, want %d", part.Count, BlockSize)
	}
	if got := o.Counter("blocks_pruned").Value(); got != 3 {
		t.Fatalf("blocks_pruned = %d, want 3", got)
	}
	if got := o.Counter("rows_scanned").Value(); got != 0 {
		t.Fatalf("rows_scanned = %d, want 0 (zone maps decided every block)", got)
	}
	if got := o.Counter("rows_matched").Value(); got != uint64(BlockSize) {
		t.Fatalf("rows_matched = %d, want %d", got, BlockSize)
	}

	// An unprunable predicate scans everything.
	q2 := MustParse("SELECT COUNT(*) FROM T WHERE v = 13")
	if _, err := tbl.Execute(q2, 0); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("rows_scanned").Value(); got != uint64(4*BlockSize) {
		t.Fatalf("rows_scanned = %d, want %d", got, 4*BlockSize)
	}
}

// TestPruningCountersZeroWhenZoneMapsDisabled is the satellite gate:
// with zone maps off, nothing may report as pruned — every block is
// kernel-scanned — while results stay identical.
func TestPruningCountersZeroWhenZoneMapsDisabled(t *testing.T) {
	tbl, o := statsTable(t)
	tbl.SetZoneMaps(false)
	q := MustParse("SELECT SUM(v) FROM T WHERE ts >= 6144")
	part, err := tbl.Execute(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := tbl.CountMatching(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("blocks_pruned").Value(); got != 0 {
		t.Fatalf("blocks_pruned = %d with zone maps disabled, want 0", got)
	}
	// Execute + CountMatching each scanned all four blocks.
	if got := o.Counter("rows_scanned").Value(); got != uint64(2*4*BlockSize) {
		t.Fatalf("rows_scanned = %d, want %d", got, 2*4*BlockSize)
	}
	tbl.SetZoneMaps(true)
	want, err := tbl.ExecuteOracle(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part != want || cnt != want.Count {
		t.Fatalf("disabled-zone-map results diverge: %+v / %d vs oracle %+v", part, cnt, want)
	}
}

// TestPlanCache: a query carries its bound plan, so executing it again on
// the table hits; another query object of the same text binds its own;
// binding errors are not memoized and keep erroring.
func TestPlanCache(t *testing.T) {
	tbl, o := statsTable(t)
	hits, misses := o.Counter("plan_cache_hits"), o.Counter("plan_cache_misses")
	q := MustParse("SELECT COUNT(*) FROM T WHERE v = 13")
	if _, err := tbl.Execute(q, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CountMatching(q, 0); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
	if q.plan.Load() == nil {
		t.Fatal("the query carries no plan")
	}

	// A distinct Query object — even with identical text — is a distinct
	// plan: pointer identity is the key (two BindNow copies of a NOW()
	// query share Raw but need different plans).
	q2 := MustParse("SELECT COUNT(*) FROM T WHERE v = 13")
	if _, err := tbl.Execute(q2, 0); err != nil {
		t.Fatal(err)
	}
	if misses.Value() != 2 || q2.plan.Load() == q.plan.Load() {
		t.Fatalf("a second query object of the same text: %d misses, plan shared %v; want 2 and its own",
			misses.Value(), q2.plan.Load() == q.plan.Load())
	}

	// Binding errors are not memoized and keep erroring.
	bad := MustParse("SELECT COUNT(*) FROM T WHERE nope = 1")
	for i := 0; i < 2; i++ {
		if _, err := tbl.Execute(bad, 0); err == nil {
			t.Fatal("expected bind error for unknown column")
		}
	}
	if bad.plan.Load() != nil || misses.Value() != 2 {
		t.Fatalf("a query that fails to bind carries a plan or counted %d misses", misses.Value()-2)
	}
}

// TestPlanSharedAcrossTables: tables of one schema share each query's
// bound plan, so a query binds once however many tables execute it; a
// BindNow copy binds its own; a table of another schema binds afresh; and
// two goroutines may execute one query on two tables at once (run with
// -race).
func TestPlanSharedAcrossTables(t *testing.T) {
	schema := Schema{Name: "T", Columns: []Column{
		{Name: "ts", Type: TInt, Indexed: true},
		{Name: "v", Type: TInt, Indexed: true},
	}}
	o := obs.New()
	hits, misses := o.Counter("plan_cache_hits"), o.Counter("plan_cache_misses")
	tables := make([]*Table, 16)
	for i := range tables {
		tables[i] = NewTable(schema)
		for r := 0; r < 100+i; r++ {
			if err := tables[i].InsertInts(int64(r), int64(r%7)); err != nil {
				t.Fatal(err)
			}
		}
		tables[i].BuildSummary()
		tables[i].SetExecStats(StandardExecStats(o))
	}

	t.Run("one bind per query", func(t *testing.T) {
		h0, m0 := hits.Value(), misses.Value()
		q := MustParse("SELECT SUM(v) FROM T WHERE v > 2 AND ts < NOW() - 10")
		for _, tbl := range tables {
			if _, err := tbl.Execute(q, 60); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.CountMatching(q, 60); err != nil {
				t.Fatal(err)
			}
		}
		if m, h := misses.Value()-m0, hits.Value()-h0; m != 1 || h != uint64(2*len(tables)-1) {
			t.Errorf("%d tables executed and counted one query: %d misses, %d hits; want 1 and %d",
				len(tables), m, h, 2*len(tables)-1)
		}
	})

	t.Run("BindNow copy binds its own", func(t *testing.T) {
		q := MustParse("SELECT COUNT(*) FROM T WHERE ts >= NOW() - 50")
		b := q.BindNow(120)
		m0 := misses.Value()
		nq, _ := tables[0].CountMatching(q, 120)
		nb, _ := tables[0].CountMatching(b, 0)
		if p, pb := q.plan.Load(), b.plan.Load(); p == nil || pb == nil || p == pb || misses.Value()-m0 != 2 {
			t.Fatalf("a query and its BindNow copy: plans %p and %p, %d misses; want two plans", p, pb, misses.Value()-m0)
		}
		if nq != nb || nq != 30 {
			t.Errorf("the query counts %d rows, its bound copy %d; want 30", nq, nb)
		}
		if c := q.Clone(); c.plan.Load() != nil {
			t.Error("a clone inherits its original's plan")
		}
	})

	t.Run("another schema binds afresh", func(t *testing.T) {
		// The same table name and column names in another order: a plan
		// bound for the first schema would read the wrong column here.
		other := NewTable(Schema{Name: "T", Columns: []Column{
			{Name: "v", Type: TInt, Indexed: true},
			{Name: "ts", Type: TInt, Indexed: true},
		}})
		for r := 0; r < 100; r++ {
			if err := other.InsertInts(int64(r%7), int64(r)); err != nil {
				t.Fatal(err)
			}
		}
		q := MustParse("SELECT SUM(ts) FROM T WHERE v = 3")
		shared, err := tables[0].Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		own, err := other.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if own == shared {
			t.Fatal("a table of another schema reused the plan bound for the first")
		}
		got, _ := other.Execute(q, 0)
		want, _ := other.ExecuteOracle(q, 0)
		if got != want {
			t.Errorf("on the other schema: %+v, oracle %+v", got, want)
		}
		if p, _ := tables[1].Plan(q); p == own {
			t.Error("a table of the first schema ran the other schema's plan")
		}
	})

	t.Run("two goroutines, one query", func(t *testing.T) {
		q := MustParse("SELECT AVG(v) FROM T WHERE v < 5 AND ts >= 10")
		var wg sync.WaitGroup
		got := make([]agg.Partial, 2)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					got[g], _ = tables[g].Execute(q, 0)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if want, _ := tables[g].ExecuteOracle(q, 0); got[g] != want {
				t.Errorf("table %d: %+v, oracle %+v", g, got[g], want)
			}
		}
	})
}

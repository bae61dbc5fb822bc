package relq

import "repro/internal/obs"

// ExecStats are the executor's observability counters. All fields are
// optional: obs counters are nil-safe, so an unwired table (zero
// ExecStats) pays one predicted branch per counter per execution and
// nothing else. The cluster wires every endsystem table to one shared set
// of registry counters; counts are accumulated atomically and are
// order-independent, so totals do not depend on the order executions run
// in.
type ExecStats struct {
	// RowsScanned counts rows evaluated by a predicate kernel. Rows in
	// blocks that zone maps decided wholesale (pruned or all-match) are
	// not scanned.
	RowsScanned *obs.Counter
	// RowsMatched counts rows satisfying all predicates (the rows that
	// reach aggregation).
	RowsMatched *obs.Counter
	// BlocksPruned counts blocks skipped entirely because a zone map
	// proved no row could match. Always zero while zone maps are disabled.
	BlocksPruned *obs.Counter
	// PlanCacheHits / PlanCacheMisses count bound-plan cache outcomes.
	PlanCacheHits   *obs.Counter
	PlanCacheMisses *obs.Counter
}

// SetExecStats wires the table's executor counters. Pass the zero value to
// unwire.
func (t *Table) SetExecStats(s ExecStats) { t.stats = s }

// StandardExecStats returns the conventional counter set — rows_scanned,
// rows_matched, blocks_pruned, plan_cache_hits, plan_cache_misses — from
// the given observability layer (nil-safe: a nil layer yields no-op
// handles).
func StandardExecStats(o *obs.Obs) ExecStats {
	return ExecStats{
		RowsScanned:     o.Counter("rows_scanned"),
		RowsMatched:     o.Counter("rows_matched"),
		BlocksPruned:    o.Counter("blocks_pruned"),
		PlanCacheHits:   o.Counter("plan_cache_hits"),
		PlanCacheMisses: o.Counter("plan_cache_misses"),
	}
}

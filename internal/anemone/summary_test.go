package anemone

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/avail"
	"repro/internal/histogram"
	"repro/internal/relq"
)

// refTableSummary builds a Flow summary the way relq's BuildSummary did
// before its radix sort and shared buffer: a fresh copy of each indexed
// column, an exact frequency histogram below 64 distinct values (relq's
// maxFrequencyDistinct), otherwise a step histogram over the column
// sorted with slices.Sort.
func refTableSummary(t *relq.Table) *relq.TableSummary {
	ts := &relq.TableSummary{
		Table:     t.Schema().Name,
		TotalRows: int64(t.NumRows()),
		Columns:   make(map[string]histogram.Histogram),
	}
	for _, col := range t.Schema().Columns {
		if !col.Indexed {
			continue
		}
		vals := t.ColumnValues(col.Name)
		if h := histogram.BuildFrequency(vals, 64); h != nil {
			ts.Columns[col.Name] = h
			continue
		}
		slices.Sort(vals)
		ts.Columns[col.Name] = histogram.BuildEquiDepth(vals, relq.HistogramBuckets)
	}
	return ts
}

// TestSummaryMatchesSortBuilder: on Flow tables of the scan benchmark's
// shape (10,000 flows a day over three days, ~30,000 rows) the encoded
// summary is byte for byte the one the slices.Sort reference builds.
func TestSummaryMatchesSortBuilder(t *testing.T) {
	cfg := Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}
	for i := 0; i < 6; i++ {
		flow := Generate(cfg, i).Flow
		got := flow.BuildSummary().Encode(nil)
		if want := refTableSummary(flow).Encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("endsystem %d: %d-byte summary differs from the %d-byte reference", i, len(got), len(want))
		}
	}
}

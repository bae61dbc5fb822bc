package anemone

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/histogram"
	"repro/internal/relq"
)

// refSummary builds a Flow summary the way relq's BuildSummary did
// before its radix sort and shared buffer: a fresh copy of each indexed
// column, an exact frequency histogram below 64 distinct values (relq's
// maxFrequencyDistinct), otherwise a step histogram over the column sorted
// with slices.Sort; the columns in name order.
func refSummary(t *relq.Table) *relq.Summary {
	ts := &relq.Summary{
		Table:     t.Schema().Name,
		TotalRows: int64(t.NumRows()),
	}
	for _, col := range t.Schema().Columns {
		if !col.Indexed {
			continue
		}
		c := relq.ColumnSummary{Name: col.Name}
		vals := t.ColumnValues(col.Name)
		if f := histogram.BuildFrequency(vals, 64); f != nil {
			c.Histogram = f
		} else {
			slices.Sort(vals)
			c.Histogram = histogram.BuildEquiDepth(vals, relq.HistogramBuckets)
		}
		ts.Columns = append(ts.Columns, c)
	}
	slices.SortFunc(ts.Columns, func(a, b relq.ColumnSummary) int { return strings.Compare(a.Name, b.Name) })
	return ts
}

// TestSummaryMatchesSortBuilder: on Flow tables of the scan benchmark's
// shape (10,000 flows a day over three days, ~30,000 rows) the encoded
// summary is byte for byte the one the slices.Sort reference builds.
func TestSummaryMatchesSortBuilder(t *testing.T) {
	cfg := Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}
	for i := 0; i < 6; i++ {
		flow := Generate(cfg, i).Flow
		got := flow.BuildSummary().Encode()
		if want := refSummary(flow).Encode(); !bytes.Equal(got, want) {
			t.Fatalf("endsystem %d: %d-byte summary differs from the %d-byte reference", i, len(got), len(want))
		}
	}
}

// estimateQueries are the scan benchmark's eight templates and the four
// paper queries (three of which the scan templates repeat).
var estimateQueries = []string{
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
	"SELECT COUNT(*) FROM Flow WHERE LocalPort=443",
	"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
	"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
	"SELECT AVG(Bytes) FROM Flow WHERE Bytes >= 1000 AND Bytes <= 100000",
	"SELECT MAX(Bytes) FROM Flow WHERE App='SMB' AND Bytes > 5000 AND LocalPort >= 1024",
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND Bytes > 10000 AND LocalPort >= 1024",
	"SELECT COUNT(*) FROM Flow WHERE App='DNS' AND LocalPort=53 AND Bytes < 200",
	"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
	"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
	"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
	"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
}

// TestSummaryPinned holds the summaries of TestGeneratePinned's five
// tables to the bytes, sizes and row estimates they had while Summary and
// TableSummary kept their tables and columns in maps: the FNV-1a digest of
// Summary.Encode, EncodedSize, and the digest of EstimateRows' float64
// bits for estimateQueries in order.
func TestSummaryPinned(t *testing.T) {
	scan := Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}
	queries := make([]*relq.Query, len(estimateQueries))
	for i, sql := range estimateQueries {
		queries[i] = relq.MustParse(sql)
	}
	for _, c := range []struct {
		cfg       Config
		i         int
		size      int
		enc, ests uint64
	}{
		{scan, 0, 1716, 0xb04c42b594d4cdec, 0xb86eb086883a097d},
		{scan, 1, 1720, 0x277ee8e52463d303, 0x655c558de4eac0c4},
		{scan, 2, 1717, 0xd774d2a0bb719308, 0x5545edefaa9a9aa3},
		{scan, 3, 1718, 0x6642dca15846aa44, 0xf2a320b4b10f2716},
		{Config{Seed: 1, Horizon: 6 * time.Hour, MeanFlowsPerDay: 50}, 0, 207, 0xfea4233f8c721048, 0xc0ba777644f2a963},
	} {
		sum := Generate(c.cfg, c.i).Summary()
		enc := fnv.New64a()
		enc.Write(sum.Encode())
		ests := fnv.New64a()
		var buf []byte
		for _, q := range queries {
			buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(sum.EstimateRows(q, 0)))
			ests.Write(buf)
		}
		if size := sum.EncodedSize(); size != c.size || enc.Sum64() != c.enc || ests.Sum64() != c.ests {
			t.Errorf("%d flows a day, endsystem %d: %d bytes, encoding %#x, estimates %#x; pinned %d, %#x, %#x",
				c.cfg.MeanFlowsPerDay, c.i, size, enc.Sum64(), ests.Sum64(), c.size, c.enc, c.ests)
		}
	}
}

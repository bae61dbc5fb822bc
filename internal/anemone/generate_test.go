package anemone

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/avail"
)

// flowDigest is the FNV-1a hash of every column of a Flow table, column
// after column, each value as 8 little-endian bytes in row order.
func flowDigest(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, col := range FlowSchema().Columns {
		buf = buf[:0]
		for _, v := range d.Flow.ColumnValues(col.Name) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGeneratePinned holds Generate's output to the rows it produced
// before relq sealed a table's last block at its row hint and before
// sampleTimestamp shared acceptRate's table: the scan benchmark's tables
// (10,000 flows a day over three days, endsystems 0-3) and a dozen-row
// table of the steady benchmark's size. A change to the storage layout or
// to the generator that loses, reorders or alters one value fails it.
func TestGeneratePinned(t *testing.T) {
	for _, c := range []struct {
		cfg    Config
		i      int
		rows   int
		digest uint64
	}{
		{Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}, 0, 25311, 0x3d83b7e0b12a2f0e},
		{Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}, 1, 29603, 0x7e30eb5fa5fecd13},
		{Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}, 2, 35484, 0x5eaac01ea3d50b50},
		{Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}, 3, 24017, 0xcc68a71f173b16b4},
		{Config{Seed: 1, Horizon: 6 * time.Hour, MeanFlowsPerDay: 50}, 0, 10, 0x2c0a5adbc9e97042},
	} {
		d := Generate(c.cfg, c.i)
		if rows, digest := d.Flow.NumRows(), flowDigest(d); rows != c.rows || digest != c.digest {
			t.Errorf("%d flows a day, endsystem %d: %d rows, digest %#x; pinned %d rows, %#x",
				c.cfg.MeanFlowsPerDay, c.i, rows, digest, c.rows, c.digest)
		}
	}
}

// BenchmarkGenerate times Generate per row on a scan-sized table (10,000
// flows a day over three days, about 30,000 rows) and a steady-sized one
// (50 flows a day over six hours, about a dozen rows), cycling through
// endsystems 0-3 (TestGeneratePinned's tables).
//
//	go test -run '^$' -bench Generate -count 10 -cpu 1 ./internal/anemone
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"scan", Config{Seed: 1, Horizon: 3 * avail.Day, MeanFlowsPerDay: 10_000}},
		{"steady", Config{Seed: 1, Horizon: 6 * time.Hour, MeanFlowsPerDay: 50}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := range b.N {
				rows += Generate(c.cfg, i%4).Flow.NumRows()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}

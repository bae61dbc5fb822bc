package relq

import (
	"math"
	"math/rand"
	"testing"
)

// benchFlowTable returns a table of flowSchema's shape holding rows rows
// drawn like anemone's Flow columns: ts over three days, ports mostly
// ephemeral with well-known ones among them, App one of six names, Bytes
// lognormal.
func benchFlowTable(rows int) *Table {
	rng := rand.New(rand.NewSource(int64(rows)))
	apps := []int64{HashString("HTTP"), HashString("HTTPS"), HashString("SMB"), HashString("SQL"), HashString("DNS"), HashString("P2P")}
	ports := []int64{80, 443, 445, 1433, 53, 6881}
	tbl := NewTableWithCapacity(flowSchema(), rows)
	for r := 0; r < rows; r++ {
		a := rng.Intn(len(apps))
		local := 1024 + rng.Int63n(64511)
		if rng.Intn(4) == 0 {
			local = ports[a]
		}
		bytes := min(max(int64(math.Exp(9+1.6*rng.NormFloat64())), 64), 1<<31)
		tbl.InsertInts(rng.Int63n(3*86400), []int64{ports[a], 1024 + rng.Int63n(64511)}[rng.Intn(2)],
			local, apps[a], bytes, bytes/700+1)
	}
	return tbl
}

// BenchmarkBuildSummary times BuildSummary on a scan-sized table (30,000
// rows: ts, the ports and Bytes sorted, App counted) and a steady-sized
// one (12 rows), per table.
//
//	go test -run '^$' -bench BuildSummary -count 10 -cpu 1 ./internal/relq
func BenchmarkBuildSummary(b *testing.B) {
	for _, rows := range []struct {
		name string
		n    int
	}{{"scan", 30_000}, {"steady", 12}} {
		tbl := benchFlowTable(rows.n)
		b.Run(rows.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				tbl.BuildSummary()
			}
		})
	}
}

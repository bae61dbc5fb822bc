package experiments

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestCoordsSmoke is the CI gate for the network-coordinate subsystem:
// the paired ablation (coords-biased vs id-only trees on the clustered
// router topology) must show coords strictly winning on both fan-in edge
// p50 and query p50, and the RTT-scoped query demo must return exactly
// the in-scope rows per the brute-force oracle.
func TestCoordsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster study")
	}
	r := CoordsStudy([]int64{1, 2}, true, 0)
	r.Render(io.Discard)
	t.Logf("fanin p50 coords=%v base=%v; query p50 coords=%v base=%v; edges=%d queries=%d err=%.3f",
		r.CoordsFaninP50, r.BaseFaninP50, r.CoordsQueryP50, r.BaseQueryP50,
		r.EntryEdges, r.Queries, r.MeanCoordErr)
	if r.EntryEdges == 0 || r.Queries == 0 {
		t.Fatalf("study measured nothing: %d entry edges, %d queries", r.EntryEdges, r.Queries)
	}
	if r.CoordsFaninP50 >= r.BaseFaninP50 {
		t.Errorf("coords fan-in edge p50 %v does not strictly beat id-only %v",
			r.CoordsFaninP50, r.BaseFaninP50)
	}
	if r.CoordsQueryP50 >= r.BaseQueryP50 {
		t.Errorf("coords query p50 %v does not strictly beat id-only %v",
			r.CoordsQueryP50, r.BaseQueryP50)
	}
	if r.MeanCoordErr <= 0 || r.MeanCoordErr >= 1.0 {
		t.Errorf("mean Vivaldi relative error %.3f outside (0, 1.0): space did not converge",
			r.MeanCoordErr)
	}

	s := QuickScale()
	s.PacketN = 80
	s.PacketHorizon = 36 * time.Hour
	s.FlowsPerDay = 40
	d := RTTScopeDemo(s, 50*time.Millisecond)
	d.Render(io.Discard)
	t.Logf("scope: members=%d/%d rows=%d oracle=%d pruned=%d err=%.3f",
		d.Members, d.N, d.FinalRows, d.OracleRows, d.Pruned, d.MeanCoordErr)
	if d.OutOfScopeSubmits != 0 {
		t.Errorf("%d endsystems outside the RTT scope entered the aggregation tree", d.OutOfScopeSubmits)
	}
	if d.FinalRows != d.OracleRows {
		t.Errorf("scoped query converged to %d rows, oracle says %d", d.FinalRows, d.OracleRows)
	}
	if d.Members <= 0 || d.Members > d.N {
		t.Errorf("scope membership %d of %d endsystems is implausible", d.Members, d.N)
	}
}

// TestCoordsFullScale holds the study's teeth on the numbers DESIGN.md and
// EXPERIMENTS.md quote: the full-scale paired ablation over seeds 1..6
// (the logged table is theirs; 26.29 vs 31.98 ms fan-in edge p50 and 386.3
// vs 501.5 ms query p50 when last recorded).
func TestCoordsFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("12 full-scale cluster runs")
	}
	r := CoordsStudy([]int64{1, 2, 3, 4, 5, 6}, false, 0)
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
	if r.EntryEdges == 0 || r.Queries == 0 {
		t.Fatalf("study measured nothing: %d entry edges, %d queries", r.EntryEdges, r.Queries)
	}
	if r.CoordsFaninP50 >= r.BaseFaninP50 {
		t.Errorf("coords fan-in edge p50 %v does not strictly beat id-only %v",
			r.CoordsFaninP50, r.BaseFaninP50)
	}
	if r.CoordsQueryP50 >= r.BaseQueryP50 {
		t.Errorf("coords query p50 %v does not strictly beat id-only %v",
			r.CoordsQueryP50, r.BaseQueryP50)
	}
}

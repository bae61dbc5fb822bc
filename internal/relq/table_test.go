package relq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
)

func flowSchema() Schema {
	return Schema{
		Name: "Flow",
		Columns: []Column{
			{Name: "ts", Type: TInt, Indexed: true},
			{Name: "SrcPort", Type: TInt, Indexed: true},
			{Name: "LocalPort", Type: TInt, Indexed: true},
			{Name: "App", Type: TString, Indexed: true},
			{Name: "Bytes", Type: TInt, Indexed: true},
			{Name: "Packets", Type: TInt},
		},
	}
}

func sampleFlowTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(flowSchema())
	rows := []struct {
		ts, srcPort, localPort int64
		app                    string
		bytes, packets         int64
	}{
		{100, 80, 80, "HTTP", 5000, 10},
		{200, 80, 80, "HTTP", 3000, 6},
		{300, 445, 445, "SMB", 40000, 50},
		{400, 445, 445, "SMB", 20000, 30},
		{500, 5000, 1433, "SQL", 100, 2},
		{600, 80, 8080, "HTTP", 25000, 40},
	}
	for _, r := range rows {
		if err := tbl.Insert(r.ts, r.srcPort, r.localPort, r.app, r.bytes, r.packets); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestInsertTypeErrors(t *testing.T) {
	tbl := NewTable(flowSchema())
	if err := tbl.Insert(1, 2, 3); err == nil {
		t.Error("wrong arity must fail")
	}
	if err := tbl.Insert("x", 80, 80, "HTTP", 1, 1); err == nil {
		t.Error("string into int column must fail")
	}
	if err := tbl.Insert(1, 80, 80, 99, 1, 1); err == nil {
		t.Error("int into string column must fail")
	}
	if tbl.NumRows() != 0 {
		t.Error("failed inserts must not add rows")
	}
}

func TestExecutePaperQueries(t *testing.T) {
	tbl := sampleFlowTable(t)

	p, err := tbl.Execute(MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Final(agg.Sum); got != 33000 {
		t.Errorf("SUM(Bytes) http = %v, want 33000", got)
	}

	p, _ = tbl.Execute(MustParse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"), 0)
	if got := p.Final(agg.Count); got != 2 {
		t.Errorf("COUNT big flows = %v, want 2", got)
	}

	p, _ = tbl.Execute(MustParse("SELECT AVG(Bytes) FROM Flow WHERE App='SMB'"), 0)
	if got := p.Final(agg.Avg); got != 30000 {
		t.Errorf("AVG(Bytes) SMB = %v, want 30000", got)
	}

	p, _ = tbl.Execute(MustParse("SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024"), 0)
	if got := p.Final(agg.Sum); got != 96 {
		t.Errorf("SUM(Packets) privileged = %v, want 96", got)
	}

	p, _ = tbl.Execute(MustParse("SELECT MIN(Bytes) FROM Flow"), 0)
	if got := p.Final(agg.Min); got != 100 {
		t.Errorf("MIN(Bytes) = %v, want 100", got)
	}

	p, _ = tbl.Execute(MustParse("SELECT MAX(Bytes) FROM Flow WHERE App='HTTP'"), 0)
	if got := p.Final(agg.Max); got != 25000 {
		t.Errorf("MAX(Bytes) http = %v, want 25000", got)
	}
}

func TestExecuteNowBinding(t *testing.T) {
	tbl := sampleFlowTable(t)
	// ts <= NOW() AND ts >= NOW()-200 with NOW()=500 selects ts in [300,500].
	q := MustParse("SELECT COUNT(*) FROM Flow WHERE ts <= NOW() AND ts >= NOW() - 200")
	p, err := tbl.Execute(q, 500)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Final(agg.Count); got != 3 {
		t.Errorf("time-window count = %v, want 3", got)
	}
}

func TestBindErrors(t *testing.T) {
	tbl := sampleFlowTable(t)
	bad := []string{
		"SELECT SUM(Bytes) FROM Packet WHERE SrcPort=80", // wrong table
		"SELECT SUM(Nope) FROM Flow",                     // unknown agg column
		"SELECT SUM(App) FROM Flow",                      // aggregate over string
		"SELECT COUNT(*) FROM Flow WHERE Nope = 1",       // unknown pred column
		"SELECT COUNT(*) FROM Flow WHERE App < 'SMB'",    // ordered comparison on string
		"SELECT COUNT(*) FROM Flow WHERE App = 5",        // type mismatch
		"SELECT COUNT(*) FROM Flow WHERE Bytes = 'SMB'",  // type mismatch
	}
	for _, sql := range bad {
		if _, err := tbl.Execute(MustParse(sql), 0); err == nil {
			t.Errorf("Execute(%q) should fail", sql)
		}
	}
}

func TestCountMatching(t *testing.T) {
	tbl := sampleFlowTable(t)
	n, err := tbl.CountMatching(MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("matching rows = %d, want 3", n)
	}
}

func TestSummaryEstimates(t *testing.T) {
	// Build a big table and verify the estimates track exact counts.
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable(flowSchema())
	apps := []string{"HTTP", "SMB", "SQL", "DNS"}
	for i := 0; i < 20000; i++ {
		app := apps[rng.Intn(len(apps))]
		srcPort := int64([]int{80, 443, 445, 1433, 5000 + rng.Intn(1000)}[rng.Intn(5)])
		tbl.Insert(int64(i), srcPort, int64(rng.Intn(10000)), app,
			int64(rng.Intn(50000)), int64(rng.Intn(100)))
	}
	sum := tbl.BuildSummary()

	for _, sql := range []string{
		"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80",
		"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000",
		"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'",
		"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024",
		"SELECT COUNT(*) FROM Flow WHERE ts >= 10000",
	} {
		q := MustParse(sql)
		exact, err := tbl.CountMatching(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		est := sum.EstimateRows(q, 0)
		if exact == 0 {
			continue
		}
		rel := math.Abs(est-float64(exact)) / float64(exact)
		if rel > 0.10 {
			t.Errorf("%s: est %.0f vs exact %d (%.1f%% error)", sql, est, exact, rel*100)
		}
	}
}

func TestSummaryEncodeDecode(t *testing.T) {
	tbl := sampleFlowTable(t)
	s := tbl.BuildSummary()
	enc := s.Encode()
	if len(enc) == 0 {
		t.Fatal("empty encoding")
	}
	got, err := DecodeSummary(enc)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	if a, b := s.EstimateRows(q, 0), got.EstimateRows(q, 0); math.Abs(a-b) > 1e-9 {
		t.Fatalf("estimate drift across wire: %v vs %v", a, b)
	}
	if s.EncodedSize() != len(enc) {
		t.Fatal("EncodedSize inconsistent")
	}
}

func TestSummaryUnknownTableAndColumn(t *testing.T) {
	tbl := sampleFlowTable(t)
	s := tbl.BuildSummary()
	if got := s.EstimateRows(MustParse("SELECT COUNT(*) FROM Packet"), 0); got != 0 {
		t.Errorf("unknown table estimate = %v, want 0", got)
	}
	// Packets is not indexed: selectivity 1 (all rows).
	got := s.EstimateRows(MustParse("SELECT COUNT(*) FROM Flow WHERE Packets > 20"), 0)
	if got != 6 {
		t.Errorf("non-indexed predicate estimate = %v, want 6 (total rows)", got)
	}
	var nilSum *Summary
	if nilSum.EstimateRows(MustParse("SELECT COUNT(*) FROM Flow"), 0) != 0 {
		t.Error("nil summary must estimate 0")
	}
}

func TestDecodeSummaryErrors(t *testing.T) {
	if _, err := DecodeSummary(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	tbl := sampleFlowTable(t)
	enc := tbl.BuildSummary().Encode()
	if _, err := DecodeSummary(enc[:len(enc)-3]); err == nil {
		t.Error("truncated buffer must fail")
	}
	if _, err := DecodeSummary(append(enc, 0xff)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestInsertInts(t *testing.T) {
	tbl := NewTable(flowSchema())
	err := tbl.InsertInts(100, 80, 80, HashString("HTTP"), 5000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertInts(1, 2); err == nil {
		t.Error("wrong arity must fail")
	}
	p, err := tbl.Execute(MustParse("SELECT COUNT(*) FROM Flow WHERE App='HTTP'"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count != 1 {
		t.Errorf("hash-encoded insert not matched: count=%d", p.Count)
	}
}

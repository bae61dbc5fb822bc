package relq

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
)

func TestParsePaperQueries(t *testing.T) {
	// The four evaluation queries from the paper (Figures 5-8) plus the
	// motivating example from §4.1.
	cases := []struct {
		sql    string
		agg    agg.Kind
		col    string
		table  string
		npreds int
	}{
		{"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80", agg.Sum, "Bytes", "Flow", 1},
		{"SELECT COUNT(*) FROM Flow WHERE Bytes > 20000", agg.Count, "", "Flow", 1},
		{"SELECT AVG(Bytes) FROM Flow WHERE App='SMB'", agg.Avg, "Bytes", "Flow", 1},
		{"SELECT SUM(Packets) FROM Flow WHERE LocalPort < 1024", agg.Sum, "Packets", "Flow", 1},
		{"SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW() AND ts >= NOW() - 86400",
			agg.Sum, "Bytes", "Flow", 3},
	}
	for _, c := range cases {
		q, err := Parse(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if q.Agg != c.agg || q.AggCol != c.col || q.Table != c.table || len(q.Preds) != c.npreds {
			t.Errorf("%s: parsed %+v", c.sql, q)
		}
	}
}

func TestParseNowArithmetic(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM Flow WHERE ts >= NOW() - 86400")
	p := q.Preds[0]
	if !p.Val.UsesNow || p.Val.Int != -86400 {
		t.Fatalf("NOW() - 86400 parsed as %+v", p.Val)
	}
	if got := p.Val.Resolve(100000); got != 13600 {
		t.Fatalf("Resolve = %d, want 13600", got)
	}
	q2 := MustParse("SELECT COUNT(*) FROM Flow WHERE ts <= NOW() + 60")
	if q2.Preds[0].Val.Int != 60 {
		t.Fatalf("NOW() + 60 parsed as %+v", q2.Preds[0].Val)
	}
	q3 := MustParse("SELECT COUNT(*) FROM Flow WHERE ts <= NOW()")
	if !q3.Preds[0].Val.UsesNow || q3.Preds[0].Val.Int != 0 {
		t.Fatalf("bare NOW() parsed as %+v", q3.Preds[0].Val)
	}
}

func TestParseNegativeLiteral(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM T WHERE x > -5")
	if q.Preds[0].Val.Int != -5 {
		t.Fatalf("parsed %+v", q.Preds[0].Val)
	}
}

func TestParseStringLiteral(t *testing.T) {
	q := MustParse("SELECT AVG(Bytes) FROM Flow WHERE App='SMB'")
	v := q.Preds[0].Val
	if !v.IsString || v.Str != "SMB" {
		t.Fatalf("parsed %+v", v)
	}
	if v.Resolve(0) != HashString("SMB") {
		t.Fatal("string literal must resolve to its hash code")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select sum(Bytes) from Flow where SrcPort=80")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != agg.Sum || q.Table != "Flow" {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseNoWhere(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM Flow")
	if len(q.Preds) != 0 || !q.CountAll {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseAllOperators(t *testing.T) {
	ops := map[string]CmpOp{"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	for text, op := range ops {
		q := MustParse("SELECT COUNT(*) FROM T WHERE x " + text + " 5")
		if q.Preds[0].Op != op {
			t.Errorf("operator %q parsed as %v", text, q.Preds[0].Op)
		}
		if q.Preds[0].Op.String() != text {
			t.Errorf("op round trip: %q vs %q", q.Preds[0].Op.String(), text)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DELETE FROM Flow",
		"SELECT Bytes FROM Flow",                       // no aggregate
		"SELECT SUM(*) FROM Flow",                      // SUM(*) invalid
		"SELECT MEDIAN(Bytes) FROM Flow",               // unknown aggregate
		"SELECT SUM(Bytes FROM Flow",                   // missing )
		"SELECT SUM(Bytes) Flow",                       // missing FROM
		"SELECT SUM(Bytes) FROM",                       // missing table
		"SELECT SUM(Bytes) FROM Flow WHERE",            // dangling WHERE
		"SELECT SUM(Bytes) FROM Flow WHERE x",          // dangling column
		"SELECT SUM(Bytes) FROM Flow WHERE x = ",       // dangling op
		"SELECT SUM(Bytes) FROM Flow WHERE x = 'abc",   // unterminated string
		"SELECT SUM(Bytes) FROM Flow WHERE x ! 5",      // bad char
		"SELECT SUM(Bytes) FROM Flow WHERE x = NOW",    // NOW without ()
		"SELECT SUM(Bytes) FROM Flow WHERE x = NOW()+", // dangling offset
		"SELECT SUM(Bytes) FROM Flow WHERE a=1 OR b=2", // OR unsupported
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	sql := "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"
	q := MustParse(sql)
	if q.String() != sql {
		t.Fatalf("String() = %q", q.String())
	}
}

func TestLexIdentifiersWithDigitsAndUnderscores(t *testing.T) {
	q := MustParse("SELECT COUNT(*) FROM T_1 WHERE col_2x >= 7")
	if q.Table != "T_1" || q.Preds[0].Col != "col_2x" {
		t.Fatalf("parsed %+v", q)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("SMB") != HashString("SMB") {
		t.Fatal("hash not deterministic")
	}
	if HashString("SMB") == HashString("HTTP") {
		t.Fatal("suspicious collision")
	}
	if HashString("SMB") < 0 {
		t.Fatal("hash codes must be non-negative")
	}
	if !strings.Contains("SMB HTTP DNS", "SMB") { // silence unused import when cases change
		t.Fatal("impossible")
	}
}

// TestCloneCopiesEveryField: Clone names Query's fields one by one, since
// a Query holds its plan memo and is not copied by value, so a field added
// to Query and not to Clone fails here.
func TestCloneCopiesEveryField(t *testing.T) {
	q := MustParse("SELECT SUM(Bytes) FROM Flow WHERE ts > NOW() - 5")
	q.Continuous, q.RTTScope = true, time.Second
	orig, clone := reflect.ValueOf(q).Elem(), reflect.ValueOf(q.Clone()).Elem()
	for i := 0; i < orig.NumField(); i++ {
		f := orig.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Name != "CountAll" && orig.Field(i).IsZero() {
			t.Errorf("the query leaves %s zero, so the test cannot see Clone copy it", f.Name)
		}
		if !reflect.DeepEqual(clone.Field(i).Interface(), orig.Field(i).Interface()) {
			t.Errorf("Clone drops %s", f.Name)
		}
	}
}

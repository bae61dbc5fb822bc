package relq

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecode: DecodeSummary never panics, sizes nothing by a count the
// input cannot hold, and whatever it accepts round-trips — it re-encodes
// to a summary that decodes to the same value. The committed corpus
// (testdata/fuzz/FuzzDecode) holds the Flow table's summary, an empty
// summary and one input per rejection.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSummary(b)
		checkVerdict(t, err)
		if err != nil {
			if s != nil {
				t.Fatal("a rejected input returned a summary")
			}
			return
		}
		again, err := DecodeSummary(s.Encode())
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip changed the summary: %+v -> %+v", s, again)
		}
	})
}

// A table count the input cannot hold is refused before the table map is
// sized by it.
func TestDecodeSummaryChecksCountBeforeAllocating(t *testing.T) {
	b := binary.AppendUvarint(nil, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSummary(b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%x decoded", b)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<14 {
		t.Errorf("refusing %x allocated %d bytes", b, got)
	}
}

// FuzzParse: Parse never panics, and an accepted query keeps its text
// (TestQueryStringRoundTrip's property) and parses again from it to the
// same query. The committed corpus (testdata/fuzz/FuzzParse) holds the
// paper's queries, NOW() arithmetic and one input per parse error.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		checkVerdict(t, err)
		if err != nil {
			if q != nil {
				t.Fatal("a rejected query returned a parse")
			}
			return
		}
		if q.String() != sql {
			t.Fatalf("String() = %q, parsed from %q", q.String(), sql)
		}
		again, err := Parse(q.String())
		if err != nil || !reflect.DeepEqual(again, q) {
			t.Fatalf("re-parse of %q: %+v, %v", sql, again, err)
		}
	})
}

// checkVerdict holds the committed corpus to its file names: an entry
// named ok_* must be accepted and one named reject_* must not.
func checkVerdict(t *testing.T, err error) {
	name := t.Name()
	if strings.Contains(name, "/reject_") && err == nil || strings.Contains(name, "/ok_") && err != nil {
		t.Fatalf("corpus entry %s: err = %v", name, err)
	}
}

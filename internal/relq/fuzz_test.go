package relq

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzDecode: DecodeSummary never panics, sizes nothing by a count the
// input cannot hold, and whatever it accepts round-trips — it re-encodes
// to a summary that decodes to the same value. The committed corpus
// (testdata/fuzz/FuzzDecode) holds the Flow table's summary and one input
// per rejection, among them a table count of 0 and one of 2.
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

// A table count other than 1 is refused before anything is sized by it.
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

// FuzzSealBlock: one block of any values, sealed at its own length (as a
// table seals its last block at its row hint) in whatever layout seal
// picks, reads back as inserted, and every CmpOp at comparison points on,
// beside and between its values executes as the oracle does, zone maps on
// and off. The input is a block in a few bytes (see blockValues), so that
// the fuzzer spends its time on values, not on minimizing long inputs. The
// committed corpus (testdata/fuzz/FuzzSealBlock) holds App-like and
// extreme-valued palettes, blocks of 255 values across 2^32, palettes
// spread into offsets of one byte, three bytes and eight, and (lanes_*)
// blocks sealed at 1, 2 and 4 bytes and as dictionary codes whose row
// count is not a multiple of the lane kernels' 32-row pass and whose
// middle row is the block's largest or smallest value, so that v+1 or
// v-1 lies just past the offsets a lane holds.
func FuzzSealBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { checkSealBlock(t, blockValues(b)) })
}

// checkSealBlock is FuzzSealBlock's check of one block of values.
func checkSealBlock(t *testing.T, vals []int64) {
	tbl := NewTable(Schema{Name: "T", Columns: []Column{{Name: "v", Type: TInt}}})
	for _, v := range vals {
		tbl.InsertInts(v)
	}
	if c := &tbl.cols[0]; len(c.tail) > 0 {
		c.seal()
	}
	if got := tbl.ColumnValues("v"); !slices.Equal(got, vals) {
		t.Fatalf("the block reads back as %v, inserted %v", got, vals)
	}
	rhs := []int64{math.MinInt64, math.MaxInt64}
	if n := len(vals); n > 0 {
		v := vals[n/2]
		rhs = append(rhs, v-1, v, v+1, vals[0]/2+vals[n-1]/2)
	}
	// The oracle runs once per comparison: it is most of the cost of an
	// input, and the fuzzer minimizes an input by rerunning it.
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		p, err := tbl.Bind(MustParse("SELECT SUM(v) FROM T WHERE v " + op + " NOW() + 0"))
		if err != nil {
			t.Fatal(err)
		}
		for _, now := range rhs {
			want := p.ExecuteOracle(tbl, now)
			for _, zones := range []bool{true, false} {
				tbl.SetZoneMaps(zones)
				got, n := p.Execute(tbl, now), p.CountMatching(tbl, now)
				if got != want || !bytes.Equal(got.Encode(nil), want.Encode(nil)) || n != want.Count {
					t.Fatalf("%d rows, v %s %d, zones=%v: Execute %+v, CountMatching %d; oracle %+v",
						len(vals), op, now, zones, got, n, want)
				}
			}
		}
	}
}

// blockValues decodes a FuzzSealBlock input: a little-endian uint16 whose
// value mod BlockSize+1 is the row count, a mode byte, and a palette of up
// to 256 little-endian int64s. Row i takes a palette value picked by a
// splitmix64 stream seeded with the mode; an odd mode adds to it the
// stream's next draw shifted right by mode/2 mod 64 bits, which spreads
// the palette into blocks of every width.
func blockValues(b []byte) []int64 {
	if len(b) < 3+8 {
		return nil
	}
	n := int(binary.LittleEndian.Uint16(b)) % (BlockSize + 1)
	mode := b[2]
	var palette []int64
	for b = b[3:]; len(b) >= 8 && len(palette) < maxDict; b = b[8:] {
		palette = append(palette, int64(binary.LittleEndian.Uint64(b)))
	}
	vals := make([]int64, n)
	x := uint64(mode)
	for i := range vals {
		x = splitmix64(x)
		vals[i] = palette[x%uint64(len(palette))]
		if mode&1 == 1 {
			x = splitmix64(x)
			vals[i] += int64(x >> (mode / 2 % 64))
		}
	}
	return vals
}

// splitmix64 is one step of Vigna's SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// checkVerdict holds the committed corpus to its file names: an entry
// named ok_* must be accepted and one named reject_* must not.
func checkVerdict(t *testing.T, err error) {
	name := t.Name()
	if strings.Contains(name, "/reject_") && err == nil || strings.Contains(name, "/ok_") && err != nil {
		t.Fatalf("corpus entry %s: err = %v", name, err)
	}
}

package histogram

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecode: Decode never panics, never allocates for a count the input
// cannot hold, and whatever it accepts survives a round trip — it
// re-encodes to a histogram that decodes to the same value, and its
// estimators run on it. The committed corpus (testdata/fuzz/FuzzDecode)
// holds one built histogram of each kind, the empty equi-depth one, a
// trailing-bytes case and one input per rejection, among them the 5-byte
// equi-depth header claiming 2^20 steps.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		h, rest, err := Decode(b)
		checkVerdict(t, err)
		if err != nil {
			if h != nil || rest != nil {
				t.Fatal("a rejected input returned a histogram or a remainder")
			}
			return
		}
		for _, v := range []int64{-1, 0, 80, 1 << 40} {
			h.EstimateEq(v)
			h.EstimateRange(v, v+1000)
		}
		enc := h.Encode(nil)
		again, tail, err := Decode(enc)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-encoding %x does not decode: %v, %d bytes left", enc, err, len(tail))
		}
		if !reflect.DeepEqual(again, h) {
			t.Fatalf("round trip changed the histogram: %+v -> %+v", h, again)
		}
	})
}

// A count the input cannot hold is refused before anything is allocated
// for it: each header claims 2^20 entries in a handful of bytes, which
// used to cost 8-32 MiB before the decoder found the input truncated.
func TestDecodeChecksCountBeforeAllocating(t *testing.T) {
	for _, b := range [][]byte{
		{0x01, 0x00, 0x00, 0x00, 0x80, 0x80, 0x40}, // equi-width
		{0x02, 0x00, 0x80, 0x80, 0x40},             // equi-depth
		{0x03, 0x00, 0x80, 0x80, 0x40},             // frequency
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Decode(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%x decoded", b)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
			t.Errorf("refusing %x allocated %d bytes", b, got)
		}
	}
}

// checkVerdict holds the committed corpus to its file names: an entry
// named ok_* must decode and one named reject_* must not.
func checkVerdict(t *testing.T, err error) {
	name := t.Name()
	if strings.Contains(name, "/reject_") && err == nil || strings.Contains(name, "/ok_") && err != nil {
		t.Fatalf("corpus entry %s: err = %v", name, err)
	}
}

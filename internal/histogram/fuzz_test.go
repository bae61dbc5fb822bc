package histogram

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
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

// FuzzBuildEquiDepth: on any int64 column radixSort gives slices.Sort's
// order, BuildEquiDepth leaves its input in that order and builds the
// histogram the slices.Sort build does, and BuildFrequency and Build, on
// the column in its given order, make the frequency histogram of the
// sorted column (frequencySorted) or, past its distinct-value limit, nil
// and that step histogram. Every 8 bytes of b are one little-endian value,
// sign-extended from width%64+1 bits so narrow spans (one or two radix
// passes) are as easy to reach as the full range. The committed corpus
// (testdata/fuzz/FuzzBuildEquiDepth) holds columns on both sides of the
// comparison-sort cutoff, at 11, 18, 33 and 64 bits, all-equal and
// few-valued ones.
func FuzzBuildEquiDepth(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, width, buckets uint8) {
		shift := 63 - width%64
		vals := make([]int64, len(b)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(b[8*i:])<<shift) >> shift
		}
		ref, given := sorted(vals), slices.Clone(vals)
		radix := slices.Clone(vals)
		radixSort(radix, make([]int64, len(radix)))
		if !slices.Equal(radix, ref) {
			t.Fatal("radixSort's order differs from slices.Sort's")
		}
		got := BuildEquiDepth(vals, int(buckets))
		if !slices.Equal(vals, ref) {
			t.Fatal("BuildEquiDepth left its input out of slices.Sort's order")
		}
		if want := equiDepthSorted(ref, int(buckets)); !reflect.DeepEqual(got, want) {
			t.Fatalf("histogram %+v, want the slices.Sort build's %+v", got, want)
		}
		// Build gives the sorted column's frequency histogram up to its
		// distinct-value limit and BuildEquiDepth's past it.
		limit := int(width % 16)
		var want Histogram = got
		f := frequencySorted(ref, limit)
		if f != nil {
			want = f
		}
		if probed := BuildFrequency(given, limit); !reflect.DeepEqual(probed, f) {
			t.Fatalf("BuildFrequency made %+v, want %+v", probed, f)
		}
		var scratch []int64
		if h := Build(given, &scratch, limit, int(buckets)); !reflect.DeepEqual(h, want) {
			t.Fatalf("Build made %+v, want %+v", h, want)
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

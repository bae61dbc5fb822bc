package avail

import (
	"strings"
	"testing"
)

// FuzzDecode: DecodeModel never panics, accepts only the 48-byte form
// Encode writes, and whatever it accepts round-trips — it re-encodes to
// 48 bytes that decode to the same model. The committed corpus
// (testdata/fuzz/FuzzDecode) holds a learned model, a saturated one at the
// largest scale and one input per rejection, among them scale 20 (a count
// of 200 would wrap to 0) and a non-zero reserved byte.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeModel(b)
		checkVerdict(t, err)
		if err != nil {
			if m != nil {
				t.Fatal("a rejected input returned a model")
			}
			return
		}
		enc := m.Encode()
		if len(enc) != EncodedModelSize {
			t.Fatalf("re-encoded to %d bytes", len(enc))
		}
		again, err := DecodeModel(enc)
		if err != nil || *again != *m {
			t.Fatalf("round trip of %x: %v", b, err)
		}
	})
}

// checkVerdict holds the committed corpus to its file names: an entry
// named ok_* must decode and one named reject_* must not.
func checkVerdict(t *testing.T, err error) {
	name := t.Name()
	if strings.Contains(name, "/reject_") && err == nil || strings.Contains(name, "/ok_") && err != nil {
		t.Fatalf("corpus entry %s: err = %v", name, err)
	}
}

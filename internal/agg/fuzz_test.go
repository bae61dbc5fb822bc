package agg

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecode: DecodePartial never panics, and whatever it accepts is
// canonical — it re-encodes to exactly the bytes consumed, NaN and -0.0
// payloads included. The committed corpus (testdata/fuzz/FuzzDecode)
// holds the empty partial, an observed one, a trailing-bytes case and one
// input per rejection.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, rest, err := DecodePartial(b)
		checkVerdict(t, err)
		if err != nil {
			if p != (Partial{}) || rest != nil {
				t.Fatal("a rejected input returned a partial or a remainder")
			}
			return
		}
		used := b[:len(b)-len(rest)]
		if enc := p.Encode(nil); !bytes.Equal(enc, used) {
			t.Fatalf("accepted %x, re-encodes to %x", used, enc)
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

package predictor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// sameBits reports whether two predictors hold the same 74 bit patterns
// (== would take -0.0 for 0.0).
func sameBits(a, b *Predictor) bool {
	for s := 0; s < numSlots; s++ {
		if math.Float64bits(a.slot(s)) != math.Float64bits(b.slot(s)) {
			return false
		}
	}
	return true
}

// dense returns a predictor with every slot set.
func dense() *Predictor {
	p := &Predictor{}
	for s := 0; s < numSlots; s++ {
		p.setSlot(s, float64(s)+0.5)
	}
	return p
}

// checkRoundTrip asserts the codec's contract on one predictor and returns
// its encoding.
func checkRoundTrip(t *testing.T, p *Predictor) []byte {
	t.Helper()
	enc := p.AppendEncode(nil)
	if p.EncodedLen() != len(enc) || len(enc) > MaxEncodedLen {
		t.Fatalf("EncodedLen %d, encoded %d bytes, bound %d", p.EncodedLen(), len(enc), MaxEncodedLen)
	}
	got, rest, err := Decode(append(enc, 0xAA))
	if err != nil {
		t.Fatalf("Decode(AppendEncode(p)): %v", err)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("Decode left %d bytes, want the 1 after the encoding", len(rest))
	}
	if !sameBits(got, p) {
		t.Fatal("round trip changed a bit pattern")
	}
	return enc
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var nilPred *Predictor
	if enc := nilPred.AppendEncode(nil); len(enc) != 1 || nilPred.EncodedLen() != 1 {
		t.Fatalf("nil predictor encodes to %d bytes, want 1", len(enc))
	}
	if enc := checkRoundTrip(t, &Predictor{}); len(enc) != 1 {
		t.Fatalf("empty predictor is %d bytes, want 1", len(enc))
	}
	if enc := checkRoundTrip(t, &Predictor{Immediate: 123.5}); len(enc) != 1+bitmapBytes+8 {
		t.Fatalf("Immediate-only predictor is %d bytes, want %d", len(enc), 1+bitmapBytes+8)
	}

	p := &Predictor{Immediate: 123.5, Later: 2}
	addAtDelay(p, 90*time.Second, 7)
	if enc := checkRoundTrip(t, p); len(enc) != 1+bitmapBytes+3*8 {
		t.Fatalf("three-slot predictor is %d bytes", len(enc))
	}

	// The dense form takes over exactly where the bitmap stops paying.
	d := dense()
	if enc := checkRoundTrip(t, d); len(enc) != MaxEncodedLen {
		t.Fatalf("dense predictor is %d bytes, want %d", len(enc), MaxEncodedLen)
	}
	setBucket(d, 3, 0)
	if enc := checkRoundTrip(t, d); len(enc) != MaxEncodedLen || enc[0] != tagDense {
		t.Fatalf("73 present slots: %d bytes, tag %d", len(enc), enc[0])
	}
	d.Later = 0
	if enc := checkRoundTrip(t, d); len(enc) != 1+bitmapBytes+72*8 || enc[0] != tagSparse {
		t.Fatalf("72 present slots: %d bytes, tag %d", len(enc), enc[0])
	}

	// Presence is decided on the bit pattern: -0.0 and denormals survive.
	odd := &Predictor{Immediate: math.Copysign(0, -1), Later: math.SmallestNonzeroFloat64}
	setBucket(odd, 71, math.Float64frombits(1<<51))
	if enc := checkRoundTrip(t, odd); len(enc) != 1+bitmapBytes+3*8 {
		t.Fatalf("-0.0/denormal predictor is %d bytes", len(enc))
	}
}

// sparseEnc hand-builds a sparse encoding: the slots listed, each with the
// value given.
func sparseEnc(slots []int, vals []float64) []byte {
	enc := make([]byte, 1+bitmapBytes)
	enc[0] = tagSparse
	for _, s := range slots {
		enc[1+s/8] |= 1 << (s % 8)
	}
	for _, v := range vals {
		enc = binary.BigEndian.AppendUint64(enc, math.Float64bits(v))
	}
	return enc
}

// reject is an input Decode refuses, with the error it names.
type reject struct {
	name string
	in   []byte
	want error
}

// rejects lists the ways Decode refuses.
func rejects() []reject {
	allSlots := make([]int, numSlots)
	allVals := make([]float64, numSlots)
	for s := range allSlots {
		allSlots[s], allVals[s] = s, 1
	}
	fewDense := append([]byte{tagDense}, make([]byte, 8*numSlots)...)
	binary.BigEndian.PutUint64(fewDense[1:], math.Float64bits(5))
	withMass := func(v float64) []byte {
		enc := dense().AppendEncode(nil)
		binary.BigEndian.PutUint64(enc[1+8*40:], math.Float64bits(v))
		return enc
	}
	return []reject{
		{"no bytes", nil, ErrTruncated},
		{"bitmap cut", sparseEnc([]int{0}, []float64{1})[:5], ErrTruncated},
		{"value cut", sparseEnc([]int{0, 9}, []float64{1, 2})[:1+bitmapBytes+12], ErrTruncated},
		{"value missing", sparseEnc([]int{0, 9}, []float64{1}), ErrTruncated},
		{"dense cut", dense().AppendEncode(nil)[:MaxEncodedLen-1], ErrTruncated},
		{"tag 3", []byte{3}, ErrUnknownTag},
		{"tag 255", append([]byte{255}, make([]byte, 600)...), ErrUnknownTag},
		{"presence bit 74", sparseEnc([]int{0, 74}, []float64{1, 1}), ErrPresenceRange},
		{"presence bit 79", sparseEnc([]int{79}, []float64{1}), ErrPresenceRange},
		{"present zero", sparseEnc([]int{3}, []float64{0}), ErrNonCanonical},
		{"sparse with no slot", sparseEnc(nil, nil), ErrNonCanonical},
		{"sparse with 74 slots", sparseEnc(allSlots, allVals), ErrNonCanonical},
		{"sparse with 73 slots", sparseEnc(allSlots[1:], allVals[1:]), ErrNonCanonical},
		{"dense with one slot", fewDense, ErrNonCanonical},
		{"NaN", sparseEnc([]int{0}, []float64{math.NaN()}), ErrBadMass},
		{"+Inf", sparseEnc([]int{73}, []float64{math.Inf(1)}), ErrBadMass},
		{"-Inf", sparseEnc([]int{1}, []float64{math.Inf(-1)}), ErrBadMass},
		{"negative", sparseEnc([]int{2}, []float64{-1}), ErrBadMass},
		{"dense NaN", withMass(math.NaN()), ErrBadMass},
		{"dense negative", withMass(-3), ErrBadMass},
	}
}

func TestDecodeStrict(t *testing.T) {
	for _, c := range rejects() {
		p, rest, err := Decode(c.in)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if p != nil || rest != nil {
			t.Errorf("%s: a rejected input returned a predictor or a remainder", c.name)
		}
	}
}

// generate draws a predictor with a random number of present slots (every
// count from 0 to 74 comes up) holding ordinary masses, -0.0, denormals
// and huge values.
func generate(rng *rand.Rand) *Predictor {
	p := &Predictor{}
	present := rng.Intn(numSlots + 1)
	for _, s := range rng.Perm(numSlots)[:present] {
		var v float64
		switch rng.Intn(6) {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = math.Float64frombits(uint64(rng.Int63n(1<<52-1)) + 1) // denormal
		case 2:
			v = math.MaxFloat64
		default:
			v = rng.ExpFloat64() * 1000
		}
		p.setSlot(s, v)
	}
	return p
}

// TestEncodedLenProperty: over generated predictors EncodedLen equals the
// encoded length, stays under the bound and does not allocate, and the
// round trip is exact.
func TestEncodedLenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sink int
	for i := 0; i < 2000; i++ {
		p := generate(rng)
		checkRoundTrip(t, p)
		if i%100 == 0 {
			if a := testing.AllocsPerRun(10, func() { sink += p.EncodedLen() }); a != 0 {
				t.Fatalf("EncodedLen allocates %v times", a)
			}
		}
	}
	var nilPred *Predictor
	if a := testing.AllocsPerRun(10, func() { sink += nilPred.EncodedLen() }); a != 0 {
		t.Fatalf("EncodedLen of nil allocates %v times", a)
	}
	_ = sink
}

// FuzzDecode: Decode never panics, and whatever it accepts is canonical —
// it re-encodes to exactly the bytes consumed, holds only finite
// non-negative masses, and decodes again to the same bit patterns. The
// committed corpus (testdata/fuzz/FuzzDecode) holds the measured shapes —
// empty, Immediate-only, one bucket, dense — the -0.0 and denormal cases and
// one input per rejection.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, rest, err := Decode(b)
		if err != nil {
			if p != nil || rest != nil {
				t.Fatal("a rejected input returned a predictor or a remainder")
			}
			return
		}
		used := b[:len(b)-len(rest)]
		enc := p.AppendEncode(nil)
		if !bytes.Equal(enc, used) {
			t.Fatalf("accepted %x, re-encodes to %x", used, enc)
		}
		if p.EncodedLen() != len(enc) || len(enc) > MaxEncodedLen {
			t.Fatalf("EncodedLen %d, encoded %d bytes", p.EncodedLen(), len(enc))
		}
		for s := 0; s < numSlots; s++ {
			if !validMass(p.slot(s)) {
				t.Fatalf("slot %d holds %v", s, p.slot(s))
			}
		}
		if total := p.ExpectedTotal(); math.IsNaN(total) || total < 0 {
			t.Fatalf("ExpectedTotal = %v", total)
		}
		again, _, err := Decode(enc)
		if err != nil || !sameBits(again, p) {
			t.Fatalf("second decode: %v", err)
		}
	})
}

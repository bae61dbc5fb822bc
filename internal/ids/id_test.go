package ids

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBytesRoundTrip(t *testing.T) {
	cases := []ID{
		{},
		{Lo: 1},
		{Hi: 1},
		MaxID,
		{Hi: 0xdeadbeefcafef00d, Lo: 0x0123456789abcdef},
	}
	for _, id := range cases {
		got := FromBytes(id.ToBytes())
		if got != id {
			t.Errorf("round trip of %v gave %v", id, got)
		}
	}
}

func TestFromBytesPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short slice")
		}
	}()
	FromBytes([]byte{1, 2, 3})
}

func TestParseRoundTrip(t *testing.T) {
	id := ID{Hi: 0x0011223344556677, Lo: 0x8899aabbccddeeff}
	s := id.String()
	if s != "00112233445566778899aabbccddeeff" {
		t.Fatalf("String() = %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("Parse(%q) = %v, want %v", s, got, id)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("1234"); err == nil {
		t.Error("short string should fail")
	}
	if _, err := Parse("zz112233445566778899aabbccddeeff"); err == nil {
		t.Error("non-hex string should fail")
	}
}

func TestHashStringDeterministic(t *testing.T) {
	a := HashString("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	b := HashString("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	c := HashString("SELECT COUNT(*) FROM Flow")
	if a != b {
		t.Error("same string hashed to different IDs")
	}
	if a == c {
		t.Error("different strings hashed to same ID")
	}
}

func TestCmpAndLess(t *testing.T) {
	a := ID{Hi: 1}
	b := ID{Lo: ^uint64(0)}
	if a.Cmp(b) != 1 || b.Cmp(a) != -1 || a.Cmp(a) != 0 {
		t.Error("Cmp ordering wrong across word boundary")
	}
	if !b.Less(a) || a.Less(b) {
		t.Error("Less inconsistent with Cmp")
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCarry(t *testing.T) {
	a := ID{Lo: ^uint64(0)}
	got := a.AddUint64(1)
	if got != (ID{Hi: 1}) {
		t.Fatalf("carry: got %v", got)
	}
	if MaxID.AddUint64(1) != (ID{}) {
		t.Fatal("wraparound at 2^128 failed")
	}
}

func TestShifts(t *testing.T) {
	id := ID{Hi: 0x8000000000000001, Lo: 0x8000000000000001}
	if id.Rsh(0) != id || id.Lsh(0) != id {
		t.Error("shift by 0 must be identity")
	}
	if id.Rsh(128) != (ID{}) || id.Lsh(128) != (ID{}) {
		t.Error("shift by 128 must be zero")
	}
	if got := id.Rsh(64); got != (ID{Lo: 0x8000000000000001}) {
		t.Errorf("Rsh(64) = %v", got)
	}
	if got := id.Lsh(64); got != (ID{Hi: 0x8000000000000001}) {
		t.Errorf("Lsh(64) = %v", got)
	}
	if got := id.Rsh(1); got != (ID{Hi: 0x4000000000000000, Lo: 0xC000000000000000}) {
		t.Errorf("Rsh(1) = %v", got)
	}
	if id.Half() != id.Rsh(1) {
		t.Error("Half() != Rsh(1)")
	}
}

func TestShiftInverseProperty(t *testing.T) {
	f := func(hi, lo uint64, nRaw uint8) bool {
		n := uint(nRaw) % 129
		id := ID{Hi: hi, Lo: lo}
		// Shifting left then right must preserve the low 128-n bits.
		want := id.Lsh(n).Rsh(n)
		mask := MaxID.Rsh(n)
		return want == (ID{Hi: id.Hi & mask.Hi, Lo: id.Lo & mask.Lo})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceAndAbsDistance(t *testing.T) {
	a := ID{Lo: 10}
	b := ID{Lo: 20}
	if a.Distance(b) != (ID{Lo: 10}) {
		t.Error("clockwise distance wrong")
	}
	if b.Distance(a) != MaxID.Sub(ID{Lo: 9}) {
		t.Error("wrapping distance wrong")
	}
	if a.AbsDistance(b) != (ID{Lo: 10}) || b.AbsDistance(a) != (ID{Lo: 10}) {
		t.Error("AbsDistance not symmetric/minimal")
	}
}

func TestAbsDistanceSymmetric(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		return a.AbsDistance(b) == b.AbsDistance(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRangeAndMidpoint(t *testing.T) {
	lo := ID{Lo: 10}
	hi := ID{Lo: 20}
	if !(ID{Lo: 10}).InRange(lo, hi) || !(ID{Lo: 20}).InRange(lo, hi) {
		t.Error("InRange must be inclusive")
	}
	if (ID{Lo: 21}).InRange(lo, hi) || (ID{Lo: 9}).InRange(lo, hi) {
		t.Error("InRange out of bounds accepted")
	}
	if Midpoint(lo, hi) != (ID{Lo: 15}) {
		t.Errorf("Midpoint = %v", Midpoint(lo, hi))
	}
	if Midpoint(ID{}, MaxID) != (ID{Hi: 0x7fffffffffffffff, Lo: ^uint64(0)}) {
		t.Errorf("full-range midpoint = %v", Midpoint(ID{}, MaxID))
	}
}

func TestMidpointWithinRangeProperty(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a := ID{Hi: aHi, Lo: aLo}
		b := ID{Hi: bHi, Lo: bLo}
		if b.Less(a) {
			a, b = b, a
		}
		m := Midpoint(a, b)
		return m.InRange(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomNDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	got := RandomN(rng, 1000)
	if len(got) != 1000 {
		t.Fatalf("len = %d", len(got))
	}
	sorted := make([]ID, len(got))
	copy(sorted, got)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatal("duplicate ID generated")
		}
	}
}

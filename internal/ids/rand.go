package ids

import (
	"math/bits"
	"math/rand"
)

// Random returns a uniformly random identifier drawn from rng. Seaweed's
// simulations assign endsystemIds this way; determinism follows from the
// caller's seed.
func Random(rng *rand.Rand) ID {
	return ID{Hi: rng.Uint64(), Lo: rng.Uint64()}
}

// RandomInRange returns a random identifier in the inclusive range
// [lo, hi], uniform to within 2⁻⁶⁴ of the range span: the point is
// lo + ⌊span·f⌋ for a 64-bit random fraction f. Callers use it for route
// diversity — retargeting a retried request inside the same range so it
// routes around an unresponsive delegate.
func RandomInRange(rng *rand.Rand, lo, hi ID) ID {
	span := hi.Sub(lo)
	f := rng.Uint64()
	// off = floor(span * f / 2^64), a 128×64-bit multiply keeping the top
	// 128 of the 192-bit product.
	hiL, _ := bits.Mul64(span.Lo, f)
	hiH, loH := bits.Mul64(span.Hi, f)
	offLo, carry := bits.Add64(loH, hiL, 0)
	off := ID{Hi: hiH + carry, Lo: offLo}
	return lo.Add(off)
}

// RandomN returns n distinct uniformly random identifiers. With a 128-bit
// namespace collisions are vanishingly unlikely, but the function
// nevertheless guarantees distinctness so simulation node sets are valid.
func RandomN(rng *rand.Rand, n int) []ID {
	out := make([]ID, 0, n)
	seen := make(map[ID]struct{}, n)
	for len(out) < n {
		id := Random(rng)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// Source is math/rand's generator draw for draw: the lagged-Fibonacci
// Source64 rand.NewSource returns, with its Int63, Uint64 and seed
// normalisation. Only Seed differs: math/rand runs 1,841 serial steps of
// the LCG x ← 48271·x mod (2³¹−1), and here step k is 48271ᵏ·seed, so the
// 607 state words are independent products against tabulated powers.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

const rngLen, rngTap, lcgMod, lcgMul = 607, 273, 1<<31 - 1, 48271 // state, lag; the LCG's modulus, multiplier

// seedPow[i][j] is 48271^(21+3i+j) mod (2³¹−1): state word i packs the
// LCG's values at steps 21+3i..23+3i. rngCooked is math/rand's table of
// that name, XORed into each word; init recovers it from math/rand.
var (
	seedPow   [rngLen][3]uint64
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k < 21+3*rngLen; k++ {
		if x = x * lcgMul % lcgMod; k >= 21 {
			seedPow[(k-21)/3][(k-21)%3] = x
		}
	}
	// While rngCooked is zero, Seed(1) leaves each word's seed part. Draw k
	// of math/rand's Source(1) adds word (333−k) mod 607, as seeded, to word
	// 606−k: as rewritten by draw k−273 if k ≥ 273 (pass one), else as
	// seeded, which pass one recovered (pass two).
	var s Source
	s.Seed(1)
	r := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for k := range out {
		out[k] = int64(r.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		v[(2*rngLen-rngTap-1-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[rngLen-rngTap-1-k] = out[k] - v[rngLen-1-k]
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ s.vec[i]
	}
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source { s := new(Source); s.Seed(seed); return s }

// Seed puts s in the state rand.NewSource(seed) starts in, allocating nothing.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	} else if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i, p := range &seedPow {
		s.vec[i] = int64(mulMod(p[0], x)<<40^mulMod(p[1], x)<<20^mulMod(p[2], x)) ^ rngCooked[i]
	}
}

// mulMod is a·x mod (2³¹−1) for a, x in [1, 2³¹−1): two Mersenne folds
// (2³¹ ≡ 1) take the product to ≤ 2³²−2, then to its (nonzero) residue.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw's low 63 bits.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

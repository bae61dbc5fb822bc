package predictor

import (
	"encoding/binary"
	"errors"
	"math"
)

// Wire format. A predictor is 74 slots — Immediate, the 72 buckets, Later —
// and costs what it holds:
//
//	tagEmpty                          every slot is zero
//	tagSparse  bitmap[10]  float64…   bit s of the bitmap (byte s/8, bit s%8)
//	                                  marks slot s present; the present
//	                                  slots follow in slot order
//	tagDense   float64 × 74           every slot, when 73 or 74 are present
//	                                  and the bitmap would cost more than
//	                                  the slots it saves
//
// Values are big-endian IEEE 754 bit patterns and a slot is present when
// its bit pattern is not zero, so the codec is lossless to the bit (-0.0 and
// denormals survive) and a sum decoded at the injector is the sum that was
// encoded. Every predictor has exactly one encoding — the shortest — and
// none is longer than MaxEncodedLen: the bounded size §3.3 asks for.
const (
	tagEmpty  = 0
	tagSparse = 1
	tagDense  = 2

	numSlots    = NumBuckets + 2
	bitmapBytes = (numSlots + 7) / 8
	// denseFrom is the number of present slots from which the dense form is
	// the shorter one.
	denseFrom = (8*numSlots-bitmapBytes)/8 + 1

	// MaxEncodedLen is the longest encoding of any predictor: the dense form.
	MaxEncodedLen = 1 + 8*numSlots
)

// Decode's rejections. Each names one way a byte string fails to be the
// encoding of a predictor a Seaweed endsystem could have sent.
var (
	ErrTruncated     = errors.New("predictor: truncated encoding")
	ErrUnknownTag    = errors.New("predictor: unknown tag")
	ErrPresenceRange = errors.New("predictor: presence bit beyond the last slot")
	// ErrNonCanonical: a slot marked present whose value is zero, or a tag
	// other than the one the encoder picks for that many present slots.
	ErrNonCanonical = errors.New("predictor: non-canonical encoding")
	// ErrBadMass: a row mass that is NaN, infinite or negative. One such
	// value would poison every sum it is merged into.
	ErrBadMass = errors.New("predictor: mass is NaN, infinite or negative")
)

// slot returns slot s: Immediate, Bucket(s-1), or Later.
func (p *Predictor) slot(s int) float64 {
	switch {
	case s == 0:
		return p.Immediate
	case s <= NumBuckets:
		return p.Bucket(s - 1)
	}
	return p.Later
}

// setSlot writes slot s, allocating the buckets when s is one of them.
func (p *Predictor) setSlot(s int, v float64) {
	switch {
	case s == 0:
		p.Immediate = v
	case s <= NumBuckets:
		if p.buckets == nil {
			p.buckets = new([NumBuckets]float64)
		}
		p.buckets[s-1] = v
	default:
		p.Later = v
	}
}

// present counts the slots whose bit pattern is not zero. A nil predictor
// has none.
func (p *Predictor) present() int {
	if p == nil {
		return 0
	}
	n := 0
	for s := 0; s < numSlots; s++ {
		if math.Float64bits(p.slot(s)) != 0 {
			n++
		}
	}
	return n
}

// EncodedLen returns len(p.AppendEncode(nil)) without encoding. It does
// not allocate. A nil predictor is the empty one.
func (p *Predictor) EncodedLen() int {
	switch n := p.present(); {
	case n == 0:
		return 1
	case n >= denseFrom:
		return MaxEncodedLen
	default:
		return 1 + bitmapBytes + 8*n
	}
}

// AppendEncode appends the predictor's wire form to dst. A nil predictor is
// the empty one.
func (p *Predictor) AppendEncode(dst []byte) []byte {
	n := p.present()
	if n == 0 {
		return append(dst, tagEmpty)
	}
	if n >= denseFrom {
		dst = append(dst, tagDense)
		for s := 0; s < numSlots; s++ {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.slot(s)))
		}
		return dst
	}
	dst = append(dst, tagSparse)
	bitmap := len(dst)
	dst = append(dst, make([]byte, bitmapBytes)...)
	for s := 0; s < numSlots; s++ {
		if bits := math.Float64bits(p.slot(s)); bits != 0 {
			dst[bitmap+s/8] |= 1 << (s % 8)
			dst = binary.BigEndian.AppendUint64(dst, bits)
		}
	}
	return dst
}

// Decode parses one predictor from the front of b and returns the bytes
// after it. It accepts exactly what AppendEncode produces for a predictor
// of finite, non-negative masses: re-encoding the result gives back the
// bytes consumed. A predictor with no bucket present decodes without
// buckets.
func Decode(b []byte) (*Predictor, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrTruncated
	}
	tag, b := b[0], b[1:]
	p := &Predictor{}
	switch tag {
	case tagEmpty:
		return p, b, nil
	case tagSparse:
		if len(b) < bitmapBytes {
			return nil, nil, ErrTruncated
		}
		bitmap, vals := b[:bitmapBytes], b[bitmapBytes:]
		if bitmap[bitmapBytes-1]>>(numSlots%8) != 0 {
			return nil, nil, ErrPresenceRange
		}
		n := 0
		for s := 0; s < numSlots; s++ {
			if bitmap[s/8]&(1<<(s%8)) == 0 {
				continue
			}
			if len(vals) < 8 {
				return nil, nil, ErrTruncated
			}
			bits := binary.BigEndian.Uint64(vals)
			if bits == 0 {
				return nil, nil, ErrNonCanonical
			}
			v := math.Float64frombits(bits)
			if !validMass(v) {
				return nil, nil, ErrBadMass
			}
			p.setSlot(s, v)
			vals = vals[8:]
			n++
		}
		if n == 0 || n >= denseFrom {
			return nil, nil, ErrNonCanonical
		}
		return p, vals, nil
	case tagDense:
		if len(b) < 8*numSlots {
			return nil, nil, ErrTruncated
		}
		for s := 0; s < numSlots; s++ {
			v := math.Float64frombits(binary.BigEndian.Uint64(b[8*s:]))
			if !validMass(v) {
				return nil, nil, ErrBadMass
			}
			p.setSlot(s, v)
		}
		if p.present() < denseFrom {
			return nil, nil, ErrNonCanonical
		}
		return p, b[8*numSlots:], nil
	}
	return nil, nil, ErrUnknownTag
}

// validMass reports whether v is a row mass a predictor can hold: finite
// and not below zero (-0.0 is zero).
func validMass(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

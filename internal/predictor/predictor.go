// Package predictor implements Seaweed's completeness predictors: cumulative
// distributions of expected row count against predicted time of
// availability. A predictor answers "how many of the rows relevant to this
// query will have been processed by time t?" — the paper's example: 80% of
// rows immediately, 99% within an hour, 100% only after several days.
//
// Time is bucketed on a log scale (half-power-of-two boundaries from one
// second to about three days) "to accommodate wide variations in
// availability ranging from seconds to days". Because the bucket layout is
// fixed, predictors are bounded in size and merge by pointwise addition; the
// query distribution tree aggregates them at each step without growth, as
// §3.3 requires. On the wire (codec.go) and in memory (Predictor) a
// predictor costs what it holds.
package predictor

import (
	"math"
	"time"

	"repro/internal/avail"
)

// NumBuckets is the number of delay buckets. Bucket i covers delays in
// (Boundary(i-1), Boundary(i)]; bucket 0 covers (0, 1s].
const NumBuckets = 72

// Boundary returns the upper delay boundary of bucket i: 2^(i/4) seconds,
// i.e. boundaries advance by a factor of 2^(1/4) from one second to about
// three days. The log scale is the paper's ("time is on a log scale to
// accommodate wide variations in availability ranging from seconds to
// days"); the quarter-power spacing keeps interpolation error small in the
// steep morning ramp while the predictor stays constant-size.
func Boundary(i int) time.Duration { return boundaries[i] }

// boundaries holds every bucket's upper boundary, computed once: AddModel,
// RowsBy and DelayFor walk all of them on every call.
var boundaries = func() (b [NumBuckets]time.Duration) {
	for i := range b {
		b[i] = time.Duration(float64(time.Second) * math.Pow(2, float64(i)/4))
	}
	return b
}()

// Predictor is a completeness predictor. Immediate holds rows on currently
// available endsystems; Bucket(i) holds expected rows becoming available
// within bucket i's delay window; Later holds expected rows beyond the last
// boundary. The zero Predictor is empty and is the identity of Merge.
//
// The buckets cost what they hold in memory as on the wire: the array is
// allocated on the first mass a bucket receives, and until then nil stands
// for 72 zeros. Most predictors in a run never get one — a range with
// nothing to report, an endsystem that is up — and are 24 bytes. Every
// result is bit-identical to the one a predictor holding all 72 buckets
// gives, since adding +0.0 to a mass gives the mass back. The one exception
// is a -0.0 mass, which only Decode (or a write to Immediate or Later) can
// put into a predictor: where a dense sum adds a +0.0 bucket to it and gets
// +0.0, a missing bucket leaves it -0.0 — in a merged bucket, in
// ExpectedTotal, in RowsBy. The two compare equal, and the simulator never
// decodes (TestNegativeZeroException).
//
// A value copy shares the bucket array with its original: copy a predictor
// to read it or to hand it off, not to keep a snapshot (merge it into a zero
// Predictor for that). For the same reason == compares the array's address,
// not the masses; use Equal.
type Predictor struct {
	Immediate float64
	buckets   *[NumBuckets]float64
	Later     float64
}

// Bucket returns the rows expected to become available within bucket i's
// delay window.
func (p *Predictor) Bucket(i int) float64 {
	if p.buckets == nil {
		return 0
	}
	return p.buckets[i]
}

// Equal reports whether p and q hold the same masses, slot by slot (as
// float64 ==: -0.0 equals +0.0).
func (p *Predictor) Equal(q *Predictor) bool {
	if p.Immediate != q.Immediate || p.Later != q.Later {
		return false
	}
	for i := 0; i < NumBuckets; i++ {
		if p.Bucket(i) != q.Bucket(i) {
			return false
		}
	}
	return true
}

// AddImmediate adds rows that are available now (the endsystem is online).
func (p *Predictor) AddImmediate(rows float64) { p.Immediate += rows }

// AddModel distributes an unavailable endsystem's estimated rows across the
// delay buckets according to its availability model: the mass in bucket i
// is rows × (P(up by boundary i) − P(up by boundary i−1)). Mass the model
// does not expect within the last boundary lands in Later.
func (p *Predictor) AddModel(m *avail.Model, now, downSince time.Duration, rows float64) {
	p.AddModelMode(avail.ModeAuto, m, now, downSince, rows)
}

// AddModelMode is AddModel under a forced availability-prediction mode
// (for the classifier ablation).
func (p *Predictor) AddModelMode(mode avail.PredictionMode, m *avail.Model, now, downSince time.Duration, rows float64) {
	if rows <= 0 {
		return
	}
	prev := 0.0
	for i := 0; i < NumBuckets; i++ {
		cum := m.ProbUpByMode(mode, now, downSince, now+Boundary(i))
		if cum > 1 {
			cum = 1
		}
		if cum > prev {
			if p.buckets == nil {
				p.buckets = new([NumBuckets]float64)
			}
			p.buckets[i] += rows * (cum - prev)
			prev = cum
		}
	}
	if prev < 1 {
		p.Later += rows * (1 - prev)
	}
}

// Merge adds another predictor into this one. Merging is commutative and
// associative; aggregation trees rely on this. It allocates only when q has
// buckets and p has none.
func (p *Predictor) Merge(q *Predictor) {
	p.Immediate += q.Immediate
	if qb := q.buckets; qb != nil {
		if p.buckets == nil {
			p.buckets = new([NumBuckets]float64)
		}
		pb := p.buckets
		for i := range pb {
			pb[i] += qb[i]
		}
	}
	p.Later += q.Later
}

// ExpectedTotal returns the predictor's total expected row count.
func (p *Predictor) ExpectedTotal() float64 {
	t := p.Immediate + p.Later
	if p.buckets != nil {
		for _, v := range p.buckets {
			t += v
		}
	}
	return t
}

// RowsBy returns the expected cumulative rows processed by the given delay
// after query injection.
func (p *Predictor) RowsBy(delay time.Duration) float64 {
	rows := p.Immediate
	if p.buckets == nil {
		return rows
	}
	for i := 0; i < NumBuckets; i++ {
		b := Boundary(i)
		if b <= delay {
			rows += p.buckets[i]
			continue
		}
		// Interpolate within the bucket on log time.
		lo := time.Duration(0)
		if i > 0 {
			lo = Boundary(i - 1)
		}
		if delay > lo {
			frac := float64(delay-lo) / float64(b-lo)
			rows += p.buckets[i] * frac
		}
		break
	}
	return rows
}

// CompletenessBy returns the expected completeness (0..1) at the given
// delay: RowsBy(delay) / ExpectedTotal. An empty predictor reports 1.
func (p *Predictor) CompletenessBy(delay time.Duration) float64 {
	total := p.ExpectedTotal()
	if total <= 0 {
		return 1
	}
	return p.RowsBy(delay) / total
}

// DelayFor returns the smallest bucket boundary at which expected
// completeness reaches frac, and false when frac is never reached within
// the predictor's horizon (the remaining mass is in Later).
func (p *Predictor) DelayFor(frac float64) (time.Duration, bool) {
	total := p.ExpectedTotal()
	if total <= 0 {
		return 0, true
	}
	need := frac * total
	rows := p.Immediate
	if rows >= need {
		return 0, true
	}
	if p.buckets == nil {
		return 0, false
	}
	for i := 0; i < NumBuckets; i++ {
		rows += p.buckets[i]
		if rows >= need {
			return Boundary(i), true
		}
	}
	return 0, false
}

package predictor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/avail"
)

// denseRef is the predictor as it was before its buckets became lazy: all
// 72 of them, always there. Its methods are the old ones, kept as the
// oracle the lazy predictor must match bit for bit.
type denseRef struct {
	imm   float64
	b     [NumBuckets]float64
	later float64
}

func (r *denseRef) addModel(mode avail.PredictionMode, m *avail.Model, now, downSince time.Duration, rows float64) {
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
			r.b[i] += rows * (cum - prev)
			prev = cum
		}
	}
	if prev < 1 {
		r.later += rows * (1 - prev)
	}
}

func (r *denseRef) merge(q *denseRef) {
	r.imm += q.imm
	for i := range r.b {
		r.b[i] += q.b[i]
	}
	r.later += q.later
}

func (r *denseRef) expectedTotal() float64 {
	t := r.imm + r.later
	for _, v := range r.b {
		t += v
	}
	return t
}

func (r *denseRef) rowsBy(delay time.Duration) float64 {
	rows := r.imm
	for i := 0; i < NumBuckets; i++ {
		b := Boundary(i)
		if b <= delay {
			rows += r.b[i]
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = Boundary(i - 1)
		}
		if delay > lo {
			rows += r.b[i] * (float64(delay-lo) / float64(b-lo))
		}
		break
	}
	return rows
}

func (r *denseRef) delayFor(frac float64) (time.Duration, bool) {
	total := r.expectedTotal()
	if total <= 0 {
		return 0, true
	}
	need := frac * total
	rows := r.imm
	if rows >= need {
		return 0, true
	}
	for i := 0; i < NumBuckets; i++ {
		rows += r.b[i]
		if rows >= need {
			return Boundary(i), true
		}
	}
	return 0, false
}

// encode is the reference's wire form: the codec over a predictor that
// holds all 72 buckets.
func (r *denseRef) encode() []byte {
	b := r.b
	p := &Predictor{Immediate: r.imm, buckets: &b, Later: r.later}
	return p.AppendEncode(nil)
}

// checkAgainstDense fails unless p answers every query exactly as r does.
func checkAgainstDense(t *testing.T, what string, p *Predictor, r *denseRef) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got, want := p.ExpectedTotal(), r.expectedTotal(); !same(got, want) {
		t.Fatalf("%s: ExpectedTotal %v, dense %v", what, got, want)
	}
	delays := []time.Duration{0, time.Nanosecond, 500 * time.Millisecond, 1000 * time.Hour}
	for i := 0; i < NumBuckets; i++ {
		delays = append(delays, Boundary(i), Boundary(i)+(Boundary(min(i+1, NumBuckets-1))-Boundary(i))/3)
	}
	for _, d := range delays {
		if got, want := p.RowsBy(d), r.rowsBy(d); !same(got, want) {
			t.Fatalf("%s: RowsBy(%v) %v, dense %v", what, d, got, want)
		}
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.8, 0.9, 0.99, 0.999, 1} {
		gd, gok := p.DelayFor(f)
		wd, wok := r.delayFor(f)
		if gd != wd || gok != wok {
			t.Fatalf("%s: DelayFor(%v) = %v %v, dense %v %v", what, f, gd, gok, wd, wok)
		}
	}
	want := r.encode()
	if got := p.AppendEncode(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: encodes to %x, dense to %x", what, got, want)
	}
	if p.EncodedLen() != len(want) {
		t.Fatalf("%s: EncodedLen %d, dense encoding %d bytes", what, p.EncodedLen(), len(want))
	}
}

// testModels are availability models of every kind AddModel meets: the
// uninformed prior, a machine that comes up every morning, and irregular
// ones.
func testModels(rng *rand.Rand) []*avail.Model {
	models := []*avail.Model{{}}
	periodic := &avail.Model{}
	for i := 0; i < 20; i++ {
		periodic.ObserveUpEvent(time.Duration(i)*avail.Day+8*time.Hour+30*time.Minute, 14*time.Hour)
	}
	models = append(models, periodic)
	for k := 0; k < 3; k++ {
		m := &avail.Model{}
		at := time.Duration(0)
		for i := 0; i < 5+rng.Intn(30); i++ {
			down := time.Duration(rng.ExpFloat64() * float64(time.Duration(1+k*20)*time.Hour))
			at += down + time.Duration(rng.Int63n(int64(avail.Day)))
			m.ObserveUpEvent(at, down)
		}
		models = append(models, m)
	}
	return models
}

// TestLazyBucketsMatchDense runs random sequences of AddImmediate, AddModel,
// Merge (self-merges too) and decodes on lazy predictors and on the dense
// reference side by side: every answer and every encoding must match bit
// for bit, whether a predictor has buckets yet or not.
func TestLazyBucketsMatchDense(t *testing.T) {
	modes := []avail.PredictionMode{avail.ModeAuto, avail.ModePeriodic, avail.ModeDuration}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		models := testModels(rng)
		const n = 6
		lazy := make([]*Predictor, n)
		dense := make([]*denseRef, n)
		for i := range lazy {
			lazy[i], dense[i] = &Predictor{}, &denseRef{}
		}
		bucketFree, withBuckets := 0, 0
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			p, r := lazy[i], dense[i]
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				rows := float64(rng.Intn(3)) * rng.ExpFloat64() * 100 // 0 a third of the time
				op = fmt.Sprintf("AddImmediate(%v)", rows)
				p.AddImmediate(rows)
				r.imm += rows
			case k < 5:
				m, mode := models[rng.Intn(len(models))], modes[rng.Intn(len(modes))]
				now := 30*avail.Day + time.Duration(rng.Int63n(int64(avail.Day)))
				downSince := now - time.Duration(rng.Int63n(int64(3*avail.Day)))
				rows := float64(rng.Intn(4)-1) * rng.ExpFloat64() * 50 // <= 0 half the time
				op = fmt.Sprintf("AddModel(rows %v)", rows)
				p.AddModelMode(mode, m, now, downSince, rows)
				r.addModel(mode, m, now, downSince, rows)
			case k < 9:
				j := rng.Intn(n)
				op = fmt.Sprintf("Merge(%d)", j)
				p.Merge(lazy[j])
				r.merge(dense[j])
			default:
				op = "Decode"
				got, rest, err := Decode(r.encode())
				if err != nil || len(rest) != 0 {
					t.Fatalf("seed %d step %d: Decode of the dense encoding: %v", seed, step, err)
				}
				lazy[i], p = got, got
			}
			if p.buckets == nil {
				bucketFree++
			} else {
				withBuckets++
			}
			checkAgainstDense(t, fmt.Sprintf("seed %d step %d %s on %d", seed, step, op, i), p, r)
		}
		if bucketFree == 0 || withBuckets == 0 {
			t.Fatalf("seed %d: %d steps without buckets, %d with: both must be exercised", seed, bucketFree, withBuckets)
		}
	}
}

// TestBucketFreeIsFree: a predictor with nothing in its buckets merges and
// sizes itself without allocating, and decodes without buckets.
func TestBucketFreeIsFree(t *testing.T) {
	a := &Predictor{Immediate: 3}
	b := &Predictor{Immediate: 4, Later: 1}
	var sink int
	if n := testing.AllocsPerRun(100, func() { a.Merge(b) }); n != 0 {
		t.Errorf("Merge of bucket-free predictors: %v allocations", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += a.EncodedLen() + b.EncodedLen() }); n != 0 {
		t.Errorf("EncodedLen of bucket-free predictors: %v allocations", n)
	}
	if a.buckets != nil {
		t.Fatal("merging bucket-free predictors allocated buckets")
	}
	for _, p := range []*Predictor{{}, {Immediate: 2}, {Later: 5}, {Immediate: 1, Later: 7}} {
		got, _, err := Decode(p.AppendEncode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.buckets != nil {
			t.Errorf("Decode of %+v allocated buckets", *p)
		}
	}
	withBucket := &Predictor{}
	setBucket(withBucket, 5, 1)
	a.Merge(withBucket)
	if a.buckets == nil || a.Bucket(5) != 1 || a.buckets == withBucket.buckets {
		t.Fatal("Merge of a predictor with buckets did not give the receiver its own")
	}
	_ = sink
}

// TestEqualAndCopy: a value copy shares the buckets with its original, so
// == compares their address; Equal compares the masses.
func TestEqualAndCopy(t *testing.T) {
	p := &Predictor{Immediate: 1}
	setBucket(p, 2, 3)
	cp := *p
	setBucket(p, 2, 4)
	if cp.Bucket(2) != 4 {
		t.Fatal("a value copy did not share the bucket array")
	}
	var fresh Predictor
	fresh.Merge(p)
	if fresh == *p || !fresh.Equal(p) || !p.Equal(&fresh) {
		t.Fatal("a merged copy must differ under == and be Equal")
	}
	setBucket(p, 2, 0)
	if !p.Equal(&Predictor{Immediate: 1}) || fresh.Equal(p) {
		t.Fatal("Equal must read missing buckets as zeros and compare every bucket")
	}
	if (&Predictor{Later: 1}).Equal(&Predictor{}) || (&Predictor{Immediate: 1}).Equal(&Predictor{}) {
		t.Fatal("Equal ignores Immediate or Later")
	}
}

// TestNegativeZeroException pins the one place the lazy buckets differ
// from dense ones, documented on Predictor: a -0.0 mass, which only Decode
// can bring in, stays -0.0 where a dense sum would add a +0.0 bucket to it.
// The values still compare equal.
func TestNegativeZeroException(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// A decoded bucket holding -0.0, merged with a bucket-free predictor.
	enc := sparseEnc([]int{0, 10}, []float64{1, negZero})
	p, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	r := &denseRef{imm: 1}
	r.b[9] = negZero
	p.Merge(&Predictor{Immediate: 2})
	r.merge(&denseRef{imm: 2})
	if math.Signbit(p.Bucket(9)) != true || math.Signbit(r.b[9]) != false {
		t.Fatalf("merged bucket: lazy %v (sign %v), dense %v", p.Bucket(9), math.Signbit(p.Bucket(9)), r.b[9])
	}
	if p.Bucket(9) != r.b[9] {
		t.Fatal("-0.0 and +0.0 must compare equal")
	}

	// A bucket-free predictor whose Immediate and Later are -0.0.
	q, _, err := Decode(sparseEnc([]int{0, numSlots - 1}, []float64{negZero, negZero}))
	if err != nil || q.buckets != nil {
		t.Fatalf("decode: %v, buckets %v", err, q.buckets)
	}
	rq := &denseRef{imm: negZero, later: negZero}
	if !math.Signbit(q.ExpectedTotal()) || math.Signbit(rq.expectedTotal()) {
		t.Fatalf("ExpectedTotal: lazy %v, dense %v", q.ExpectedTotal(), rq.expectedTotal())
	}
	if !math.Signbit(q.RowsBy(time.Hour)) || math.Signbit(rq.rowsBy(time.Hour)) {
		t.Fatalf("RowsBy: lazy %v, dense %v", q.RowsBy(time.Hour), rq.rowsBy(time.Hour))
	}
	if q.ExpectedTotal() != rq.expectedTotal() || q.RowsBy(time.Hour) != rq.rowsBy(time.Hour) {
		t.Fatal("-0.0 and +0.0 must compare equal")
	}
}

package predictor

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/avail"
)

// setBucket writes bucket i.
func setBucket(p *Predictor, i int, rows float64) { p.setSlot(i+1, rows) }

// addAtDelay puts rows into the bucket whose window holds delay, or into
// Later beyond the last boundary.
func addAtDelay(p *Predictor, delay time.Duration, rows float64) {
	for i := 0; i < NumBuckets; i++ {
		if delay <= Boundary(i) {
			setBucket(p, i, p.Bucket(i)+rows)
			return
		}
	}
	p.Later += rows
}

// TestBoundaryTable: the table holds, bit for bit, the expression it
// replaced.
func TestBoundaryTable(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		want := time.Duration(float64(time.Second) * math.Pow(2, float64(i)/4))
		if Boundary(i) != want {
			t.Fatalf("Boundary(%d) = %d, want %d", i, Boundary(i), want)
		}
	}
}

func TestBoundariesSpanSecondsToDays(t *testing.T) {
	if Boundary(0) != time.Second {
		t.Fatalf("first boundary = %v", Boundary(0))
	}
	last := Boundary(NumBuckets - 1)
	if last < 48*time.Hour || last > 100*time.Hour {
		t.Fatalf("last boundary = %v, want ~72h (covers the paper's multi-day waits)", last)
	}
	for i := 1; i < NumBuckets; i++ {
		if Boundary(i) <= Boundary(i-1) {
			t.Fatal("boundaries not increasing")
		}
	}
}

func TestAddImmediateAndRowsBy(t *testing.T) {
	p := &Predictor{}
	p.AddImmediate(100)
	addAtDelay(p, 30*time.Second, 50)
	addAtDelay(p, 10*time.Hour, 25)

	if got := p.RowsBy(0); got != 100 {
		t.Errorf("RowsBy(0) = %v, want 100", got)
	}
	if got := p.RowsBy(time.Minute); got != 150 {
		t.Errorf("RowsBy(1m) = %v, want 150", got)
	}
	if got := p.RowsBy(48 * time.Hour); got != 175 {
		t.Errorf("RowsBy(48h) = %v, want 175", got)
	}
	if got := p.ExpectedTotal(); got != 175 {
		t.Errorf("total = %v", got)
	}
}

func TestCompletenessMonotone(t *testing.T) {
	f := func(imm uint16, delays []uint32, weights []uint16) bool {
		p := &Predictor{}
		p.AddImmediate(float64(imm))
		for i := range delays {
			w := 1.0
			if i < len(weights) {
				w = float64(weights[i]%1000) + 1
			}
			addAtDelay(p, time.Duration(delays[i]%(200*3600))*time.Second, w)
		}
		prev := -1.0
		for d := time.Duration(0); d < 80*time.Hour; d += 37 * time.Minute {
			c := p.CompletenessBy(d)
			if c < prev-1e-9 || c < 0 || c > 1+1e-9 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeEqualsCombined(t *testing.T) {
	a := &Predictor{}
	b := &Predictor{}
	all := &Predictor{}
	add := func(p *Predictor, d time.Duration, rows float64) {
		addAtDelay(p, d, rows)
		addAtDelay(all, d, rows)
	}
	add(a, 0, 10)
	add(a, time.Minute, 20)
	add(b, time.Hour, 30)
	add(b, 100*time.Hour, 40)
	a.Merge(b)
	for d := time.Duration(0); d < 80*time.Hour; d += time.Hour {
		if math.Abs(a.RowsBy(d)-all.RowsBy(d)) > 1e-9 {
			t.Fatalf("merge mismatch at %v", d)
		}
	}
	if a.Later != all.Later {
		t.Fatal("Later mismatch after merge")
	}
}

func TestAddModelPeriodicMachine(t *testing.T) {
	// A machine that comes up every morning between 8 and 9. It went down
	// at 18:00; the query arrives at midnight. Its rows should be
	// predicted to arrive in ~8-9 hours.
	m := &avail.Model{}
	for i := 0; i < 20; i++ {
		m.ObserveUpEvent(time.Duration(i)*avail.Day+8*time.Hour+30*time.Minute, 14*time.Hour)
	}
	p := &Predictor{}
	now := 10 * avail.Day // midnight
	p.AddModel(m, now, now-6*time.Hour, 1000)

	if got := p.RowsBy(4 * time.Hour); got > 100 {
		t.Errorf("rows by 4h = %v, want ≈0 (machine comes up at ~8:30)", got)
	}
	if got := p.RowsBy(12 * time.Hour); got < 900 {
		t.Errorf("rows by 12h = %v, want ≈1000", got)
	}
	total := p.ExpectedTotal()
	if math.Abs(total-1000) > 1 {
		t.Errorf("total = %v, want 1000 (mass conservation)", total)
	}
}

func TestAddModelMassConservation(t *testing.T) {
	m := &avail.Model{} // no observations: uninformed prior
	p := &Predictor{}
	p.AddModel(m, 0, 0, 500)
	if math.Abs(p.ExpectedTotal()-500) > 1e-6 {
		t.Fatalf("total = %v, want 500", p.ExpectedTotal())
	}
	if p.Later <= 0 {
		t.Error("an uninformed prior should leave some mass beyond the horizon")
	}
	p.AddModel(m, 0, 0, 0) // zero rows: no-op
	if math.Abs(p.ExpectedTotal()-500) > 1e-6 {
		t.Error("zero-row AddModel must not change the predictor")
	}
}

func TestDelayFor(t *testing.T) {
	p := &Predictor{}
	p.AddImmediate(80)
	addAtDelay(p, 30*time.Minute, 19)
	addAtDelay(p, 1000*time.Hour, 1) // never within horizon

	if d, ok := p.DelayFor(0.5); !ok || d != 0 {
		t.Errorf("DelayFor(0.5) = %v %v, want 0 (80%% immediate)", d, ok)
	}
	d, ok := p.DelayFor(0.99)
	if !ok || d < 30*time.Minute || d > time.Hour {
		t.Errorf("DelayFor(0.99) = %v %v, want ≈30m boundary", d, ok)
	}
	if _, ok := p.DelayFor(1.0); ok {
		t.Error("DelayFor(1.0) should be unreachable (1 row in Later)")
	}
}

func TestEmptyPredictor(t *testing.T) {
	p := &Predictor{}
	if p.CompletenessBy(time.Hour) != 1 {
		t.Error("empty predictor completeness must be 1")
	}
	if d, ok := p.DelayFor(0.9); !ok || d != 0 {
		t.Error("empty predictor reaches any completeness at 0")
	}
}

func TestRowsByInterpolatesWithinBucket(t *testing.T) {
	p := &Predictor{}
	// All mass in the bucket ending at Boundary(10).
	lo := Boundary(9)
	hi := Boundary(10)
	setBucket(p, 10, 100)
	mid := lo + (hi-lo)/2
	got := p.RowsBy(mid)
	if got < 40 || got > 60 {
		t.Errorf("interpolated rows at bucket midpoint = %v, want ≈50", got)
	}
	if p.RowsBy(lo) != 0 {
		t.Errorf("rows at bucket lower edge = %v, want 0", p.RowsBy(lo))
	}
	if p.RowsBy(hi) != 100 {
		t.Errorf("rows at bucket upper edge = %v, want 100", p.RowsBy(hi))
	}
}

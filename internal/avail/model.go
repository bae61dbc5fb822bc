package avail

import (
	"fmt"
	"math"
	"time"
)

// NumDownBuckets is the number of logarithmic down-duration buckets in a
// Model. Bucket i covers down durations [30s·2^i, 30s·2^(i+1)), so 20
// buckets span 30 seconds to about a year.
const NumDownBuckets = 20

// EncodedModelSize is the wire size of a serialized Model in bytes: 24
// up-event hour counters, 20 down-duration counters, and a 4-byte header.
// This is the paper's model parameter a = 48 bytes.
const EncodedModelSize = 24 + NumDownBuckets + 4

// downBucketFloor returns the lower bound of down-duration bucket i.
func downBucketFloor(i int) time.Duration {
	return 30 * time.Second << uint(i)
}

// downBucketOf returns the bucket index for a down duration.
func downBucketOf(d time.Duration) int {
	if d < 30*time.Second {
		return 0
	}
	i := int(math.Log2(float64(d) / float64(30*time.Second)))
	if i < 0 {
		i = 0
	}
	if i >= NumDownBuckets {
		i = NumDownBuckets - 1
	}
	return i
}

// downBucketMid returns a representative duration for bucket i (its
// geometric midpoint).
func downBucketMid(i int) time.Duration {
	lo := float64(downBucketFloor(i))
	return time.Duration(lo * math.Sqrt2)
}

// Model is the per-endsystem availability model of Seaweed §3.2.1. Two
// distributions are maintained: the down-duration distribution (how long
// the endsystem stays unavailable) and the up-event distribution (the hour
// of day at which it comes back up). An endsystem whose up events are
// heavily concentrated in particular hours — peak-to-mean ratio of the
// up-event distribution exceeding 2 — is classified as periodic and
// predicted from the up-event distribution; otherwise the down-duration
// distribution is used, conditioned on the time already spent down.
//
// The model is updated locally whenever the endsystem becomes available and
// is then pushed to its replica set; its serialized form is 48 bytes.
type Model struct {
	upHour  [24]uint16
	downDur [NumDownBuckets]uint16
}

// PeriodicThreshold is the peak-to-mean ratio of the up-event distribution
// above which an endsystem classifies itself as periodic.
const PeriodicThreshold = 2.0

// ObserveUpEvent records that the endsystem became available at virtual
// time at, after having been down for downFor. Call it on every
// down-to-up transition.
func (m *Model) ObserveUpEvent(at, downFor time.Duration) {
	h := HourOfDay(at)
	if m.upHour[h] < math.MaxUint16 {
		m.upHour[h]++
	}
	b := downBucketOf(downFor)
	if m.downDur[b] < math.MaxUint16 {
		m.downDur[b]++
	}
}

// Observations returns the number of up events recorded.
func (m *Model) Observations() int {
	n := 0
	for _, c := range m.upHour {
		n += int(c)
	}
	return n
}

// Periodic reports whether the endsystem classifies as periodic: the
// peak-to-mean ratio of its up-event hour distribution exceeds 2.
func (m *Model) Periodic() bool {
	total := 0
	peak := 0
	for _, c := range m.upHour {
		total += int(c)
		if int(c) > peak {
			peak = int(c)
		}
	}
	if total == 0 {
		return false
	}
	mean := float64(total) / 24
	return float64(peak)/mean > PeriodicThreshold
}

// PredictionMode selects which distribution drives availability
// prediction. ModeAuto is the paper's design: the up-event (hour of day)
// distribution for endsystems classified periodic, the down-duration
// distribution otherwise. The forced modes exist for the ablation
// benchmarks that quantify the value of the classifier.
type PredictionMode int

const (
	// ModeAuto applies the peak-to-mean classifier (the paper's design).
	ModeAuto PredictionMode = iota
	// ModePeriodic always predicts from the up-event distribution.
	ModePeriodic
	// ModeDuration always predicts from the conditional down-duration
	// distribution.
	ModeDuration
)

// ProbUpBy returns the model's estimate of the probability that an
// endsystem — down since downSince, observed from the current virtual time
// now — will have become available at least once by target. It is
// monotonically non-decreasing in target. With no observations it falls
// back to a pessimistic exponential with a 12-hour mean downtime.
func (m *Model) ProbUpBy(now, downSince, target time.Duration) float64 {
	return m.ProbUpByMode(ModeAuto, now, downSince, target)
}

// ProbUpByMode is ProbUpBy under a forced prediction mode.
func (m *Model) ProbUpByMode(mode PredictionMode, now, downSince, target time.Duration) float64 {
	if target <= now {
		return 0
	}
	if m.Observations() == 0 {
		// Uninformed prior: exponential residual downtime, 12 h mean.
		dt := (target - now).Hours()
		return 1 - math.Exp(-dt/12)
	}
	periodic := m.Periodic()
	switch mode {
	case ModePeriodic:
		periodic = true
	case ModeDuration:
		periodic = false
	}
	if periodic {
		return m.probUpByPeriodic(now, target)
	}
	return m.probUpByDuration(now, downSince, target)
}

// probUpByPeriodic sums the up-event probabilities of the hours of day
// whose next occurrence after now falls within (now, target].
func (m *Model) probUpByPeriodic(now, target time.Duration) float64 {
	if target-now >= Day {
		return 1
	}
	total := 0
	for _, c := range m.upHour {
		total += int(c)
	}
	var p float64
	for h := 0; h < 24; h++ {
		if m.upHour[h] == 0 {
			continue
		}
		// Next time hour h begins, strictly after now's current instant.
		dayStart := now - now%Day
		occ := dayStart + time.Duration(h)*time.Hour
		// Use the middle of the hour as the representative up instant.
		occ += 30 * time.Minute
		for occ <= now {
			occ += Day
		}
		if occ <= target {
			p += float64(m.upHour[h]) / float64(total)
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

// probUpByDuration conditions the down-duration distribution on the time
// already spent down: P(D <= elapsed+dt | D > elapsed). One pseudo-count in
// the top bucket keeps a residual tail so the conditional never divides by
// zero when the observed downtime exceeds everything in the history.
func (m *Model) probUpByDuration(now, downSince, target time.Duration) float64 {
	elapsed := now - downSince
	if elapsed < 0 {
		elapsed = 0
	}
	horizon := target - downSince

	var below, total float64
	for i := 0; i < NumDownBuckets; i++ {
		w := float64(m.downDur[i])
		if i == NumDownBuckets-1 {
			w++ // smoothing tail
		}
		total += w
		mid := downBucketMid(i)
		if mid <= elapsed {
			continue // already ruled out: we know D > elapsed
		}
		if mid <= horizon {
			below += w
		}
	}
	var above float64
	for i := 0; i < NumDownBuckets; i++ {
		w := float64(m.downDur[i])
		if i == NumDownBuckets-1 {
			w++
		}
		if downBucketMid(i) > elapsed {
			above += w
		}
	}
	if above == 0 {
		return 1
	}
	return below / above
}

// Encode serializes the model into its 48-byte wire form. Counters are
// range-compressed to a byte (values above 255 saturate), which is
// faithful to the paper's 48-byte availability models and loses no
// precision that matters: the distributions are used as ratios.
func (m *Model) Encode() []byte {
	out := make([]byte, EncodedModelSize)
	out[0] = 'A' // magic
	out[1] = 1   // version
	scale := 1
	scaleLog := 0
	maxC := 0
	for _, c := range m.upHour {
		if int(c) > maxC {
			maxC = int(c)
		}
	}
	for _, c := range m.downDur {
		if int(c) > maxC {
			maxC = int(c)
		}
	}
	for maxC/scale > 255 {
		scale *= 2
		scaleLog++
	}
	out[2] = byte(scaleLog)
	for i, c := range m.upHour {
		out[4+i] = byte(int(c) / scale)
	}
	for i, c := range m.downDur {
		out[4+24+i] = byte(int(c) / scale)
	}
	return out
}

// maxScaleLog is the largest scale Encode writes: a uint16 counter needs
// at most 8 halvings to fit a byte, and a larger scale would overflow the
// counter on decode.
const maxScaleLog = 8

// DecodeModel parses a model from its wire form. It accepts only what
// Encode writes: the header, a scale of at most maxScaleLog and a zero
// reserved byte.
func DecodeModel(b []byte) (*Model, error) {
	if len(b) != EncodedModelSize {
		return nil, fmt.Errorf("avail: model wire size %d, want %d", len(b), EncodedModelSize)
	}
	if b[0] != 'A' || b[1] != 1 {
		return nil, fmt.Errorf("avail: bad model header %x %x", b[0], b[1])
	}
	if b[2] > maxScaleLog || b[3] != 0 {
		return nil, fmt.Errorf("avail: bad model scale %d or reserved byte %x", b[2], b[3])
	}
	scale := 1 << int(b[2])
	m := &Model{}
	for i := range m.upHour {
		m.upHour[i] = uint16(int(b[4+i]) * scale)
	}
	for i := range m.downDur {
		m.downDur[i] = uint16(int(b[4+24+i]) * scale)
	}
	return m, nil
}

// LearnModel builds an availability model from every down-to-up transition
// in the profile before time upto. This mirrors the warmup phase of the
// paper's simulations, which let each endsystem learn its model before
// queries are injected.
func LearnModel(p *Profile, upto time.Duration) *Model {
	m := &Model{}
	for i := 1; i < len(p.Up); i++ {
		upAt := p.Up[i].Start
		if upAt >= upto {
			break
		}
		downFor := upAt - p.Up[i-1].End
		m.ObserveUpEvent(upAt, downFor)
	}
	return m
}

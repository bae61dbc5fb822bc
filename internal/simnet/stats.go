package simnet

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Stats accumulates bandwidth accounting for a simulation run. All byte
// counts are wire bytes as passed to Network.Send.
//
// Two granularities are kept:
//
//   - Aggregate: total bytes per traffic class per time bucket, systemwide.
//     This regenerates the overhead timelines of Figures 9(a) and 10(a).
//   - Per endsystem: total bytes per endsystem per time bucket (sum over
//     classes), transmitted and received separately. This regenerates the
//     load-distribution CDFs of Figures 9(b), 9(c) and 10(b).
type Stats struct {
	numBuckets int

	// Systemwide aggregates. Counters are integers because wire bytes are.
	classTx [NumClasses][]uint64 // bytes transmitted per bucket, per class
	totalTx [NumClasses]uint64   // cumulative
	totalRx [NumClasses]uint64

	// Per-endpoint counters are uint64: a uint32 caps one endsystem's
	// bucket at 4 GiB, which a -full horizon run with coarse buckets (or a
	// future high-bandwidth workload) can overflow silently. The widening
	// costs numEndpoints × numBuckets × 8 extra bytes — accept that rather
	// than risk wrapped load CDFs.
	epTx [][]uint64 // [endpoint][bucket] bytes transmitted
	epRx [][]uint64
}

// statsBucket is the width of the accounting buckets: one hour, because
// Figure 9(b)'s sample is "the average bandwidth used by a single
// endsystem in a single hour of the trace period" (PerEndpointHourSamples).
const statsBucket = time.Hour

func newStats(numEndpoints int, cfg NetworkConfig) *Stats {
	nb := int(cfg.Horizon/statsBucket) + 2
	s := &Stats{
		numBuckets: nb,
		epTx:       make([][]uint64, numEndpoints),
		epRx:       make([][]uint64, numEndpoints),
	}
	for c := 0; c < int(NumClasses); c++ {
		s.classTx[c] = make([]uint64, nb)
	}
	for i := range s.epTx {
		s.epTx[i] = make([]uint64, nb)
		s.epRx[i] = make([]uint64, nb)
	}
	return s
}

func (s *Stats) bucketFor(t time.Duration) int {
	b := int(t / statsBucket)
	if b >= s.numBuckets {
		b = s.numBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

func (s *Stats) accountTx(ep Endpoint, class Class, size int, t time.Duration) {
	b := s.bucketFor(t)
	s.classTx[class][b] += uint64(size)
	s.totalTx[class] += uint64(size)
	s.epTx[ep][b] += uint64(size)
}

func (s *Stats) accountRx(ep Endpoint, class Class, size int, t time.Duration) {
	b := s.bucketFor(t)
	s.totalRx[class] += uint64(size)
	s.epRx[ep][b] += uint64(size)
}

// Bucket returns the accounting bucket width.
func (s *Stats) Bucket() time.Duration { return statsBucket }

// TotalTx returns cumulative transmitted bytes for a class, systemwide.
func (s *Stats) TotalTx(class Class) float64 { return float64(s.totalTx[class]) }

// TotalRx returns cumulative received bytes for a class, systemwide.
func (s *Stats) TotalRx(class Class) float64 { return float64(s.totalRx[class]) }

// ClassTxTimeline returns, for one traffic class, the systemwide
// transmitted bytes per second in each bucket.
func (s *Stats) ClassTxTimeline(class Class) []float64 {
	out := make([]float64, s.numBuckets)
	secs := statsBucket.Seconds()
	for b, v := range s.classTx[class] {
		out[b] = float64(v) / secs
	}
	return out
}

// PerEndpointHourSamples returns one sample per (endsystem, bucket) pair:
// the endsystem's average transmitted (or received) bandwidth in bytes per
// second during that bucket. This is exactly the sample population of the
// paper's Figure 9(b): "Each sample in this distribution is the average
// bandwidth used by a single endsystem in a single hour of the trace
// period." Buckets outside [from, to) are excluded.
func (s *Stats) PerEndpointHourSamples(rx bool, from, to time.Duration) []float64 {
	src := s.epTx
	if rx {
		src = s.epRx
	}
	b0, b1 := s.bucketFor(from), s.bucketFor(to)
	secs := statsBucket.Seconds()
	out := make([]float64, 0, len(src)*(b1-b0))
	for _, row := range src {
		for b := b0; b < b1; b++ {
			out = append(out, float64(row[b])/secs)
		}
	}
	return out
}

// Distribution summarizes a sample population.
type Distribution struct {
	Mean, P50, P90, P99, Max float64
	ZeroFraction             float64 // fraction of exactly-zero samples
	N                        int
}

// Summarize computes a Distribution over samples, its percentiles at
// obs.Rank's nearest rank. The sample slice is sorted in place.
func Summarize(samples []float64) Distribution {
	d := Distribution{N: len(samples)}
	if len(samples) == 0 {
		return d
	}
	sort.Float64s(samples)
	var sum float64
	zero := 0
	for _, v := range samples {
		sum += v
		if v == 0 {
			zero++
		}
	}
	d.Mean = sum / float64(len(samples))
	d.P50 = samples[obs.Rank(len(samples), 0.50)]
	d.P90 = samples[obs.Rank(len(samples), 0.90)]
	d.P99 = samples[obs.Rank(len(samples), 0.99)]
	d.Max = samples[len(samples)-1]
	d.ZeroFraction = float64(zero) / float64(len(samples))
	return d
}

// CDF returns (x, F(x)) points of the empirical CDF of samples, downsampled
// to at most maxPoints points. The sample slice is sorted in place.
func CDF(samples []float64, maxPoints int) (xs, fs []float64) {
	if len(samples) == 0 {
		return nil, nil
	}
	sort.Float64s(samples)
	step := 1
	if maxPoints > 0 && len(samples) > maxPoints {
		step = len(samples) / maxPoints
	}
	for i := 0; i < len(samples); i += step {
		xs = append(xs, samples[i])
		fs = append(fs, float64(i+1)/float64(len(samples)))
	}
	if xs[len(xs)-1] != samples[len(samples)-1] {
		xs = append(xs, samples[len(samples)-1])
		fs = append(fs, 1)
	}
	return xs, fs
}

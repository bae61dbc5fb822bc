package simnet

import (
	"sort"
	"time"
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

	// sh holds one counter block per shard. Each block is written only by
	// events executing on its shard, so the sharded engine accounts with
	// no atomics and no locks; getters sum across shards. Counters are
	// integers (wire bytes are integral), which also makes the totals
	// independent of accumulation order across shards — float addition
	// would not be.
	sh []shardCounters

	// Per-endpoint counters are uint64: a uint32 caps one endsystem's
	// bucket at 4 GiB, which a -full horizon run with coarse buckets (or a
	// future high-bandwidth workload) can overflow silently. The widening
	// costs numEndpoints × numBuckets × 8 extra bytes — accept that rather
	// than risk wrapped load CDFs. Rows are owned by their endpoint's
	// shard (tx is charged by the sending event, rx by the delivering
	// event, both of which run on the row owner's shard), so they too need
	// no synchronization.
	perEndpoint bool
	epTx        [][]uint64 // [endpoint][bucket] bytes transmitted
	epRx        [][]uint64
}

// statsBucket is the width of the accounting buckets: one hour, because
// Figure 9(b)'s sample is "the average bandwidth used by a single
// endsystem in a single hour of the trace period" (PerEndpointHourSamples).
const statsBucket = time.Hour

// shardCounters is one shard's systemwide-aggregate accounting block.
type shardCounters struct {
	classTx [NumClasses][]uint64 // bytes per bucket, per class
	classRx [NumClasses][]uint64
	totalTx [NumClasses]uint64 // cumulative
	totalRx [NumClasses]uint64
}

func newStats(numEndpoints, numShards int, cfg NetworkConfig) *Stats {
	nb := int(cfg.Horizon/statsBucket) + 2
	s := &Stats{
		numBuckets:  nb,
		sh:          make([]shardCounters, numShards),
		perEndpoint: cfg.PerEndpointStats,
	}
	for i := range s.sh {
		for c := 0; c < int(NumClasses); c++ {
			s.sh[i].classTx[c] = make([]uint64, nb)
			s.sh[i].classRx[c] = make([]uint64, nb)
		}
	}
	if cfg.PerEndpointStats {
		s.epTx = make([][]uint64, numEndpoints)
		s.epRx = make([][]uint64, numEndpoints)
		for i := range s.epTx {
			s.epTx[i] = make([]uint64, nb)
			s.epRx[i] = make([]uint64, nb)
		}
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

func (s *Stats) accountTx(shard int32, ep Endpoint, class Class, size int, t time.Duration) {
	b := s.bucketFor(t)
	c := &s.sh[shard]
	c.classTx[class][b] += uint64(size)
	c.totalTx[class] += uint64(size)
	if s.perEndpoint {
		s.epTx[ep][b] += uint64(size)
	}
}

func (s *Stats) accountRx(shard int32, ep Endpoint, class Class, size int, t time.Duration) {
	b := s.bucketFor(t)
	c := &s.sh[shard]
	c.classRx[class][b] += uint64(size)
	c.totalRx[class] += uint64(size)
	if s.perEndpoint {
		s.epRx[ep][b] += uint64(size)
	}
}

// Bucket returns the accounting bucket width.
func (s *Stats) Bucket() time.Duration { return statsBucket }

// NumBuckets returns the number of accounting buckets.
func (s *Stats) NumBuckets() int { return s.numBuckets }

// TotalTx returns cumulative transmitted bytes for a class, systemwide.
func (s *Stats) TotalTx(class Class) float64 {
	var t uint64
	for i := range s.sh {
		t += s.sh[i].totalTx[class]
	}
	return float64(t)
}

// TotalRx returns cumulative received bytes for a class, systemwide.
func (s *Stats) TotalRx(class Class) float64 {
	var t uint64
	for i := range s.sh {
		t += s.sh[i].totalRx[class]
	}
	return float64(t)
}

// TotalTxAll returns cumulative transmitted bytes over all classes.
func (s *Stats) TotalTxAll() float64 {
	var t float64
	for c := 0; c < int(NumClasses); c++ {
		t += s.TotalTx(Class(c))
	}
	return t
}

// ClassTxTimeline returns, for one traffic class, the systemwide
// transmitted bytes per second in each bucket (summed over shards).
func (s *Stats) ClassTxTimeline(class Class) []float64 {
	out := make([]float64, s.numBuckets)
	secs := statsBucket.Seconds()
	for i := range s.sh {
		for b, v := range s.sh[i].classTx[class] {
			out[b] += float64(v)
		}
	}
	for i := range out {
		out[i] /= secs
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
	if !s.perEndpoint {
		return nil
	}
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

// Summarize computes a Distribution over samples. The sample slice is
// sorted in place.
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
	pct := func(p float64) float64 {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	d.Mean = sum / float64(len(samples))
	d.P50 = pct(0.50)
	d.P90 = pct(0.90)
	d.P99 = pct(0.99)
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

// MeanExcludingZeros returns the mean of the nonzero samples, matching the
// paper's "bytes per second per online endsystem" metric (a zero bucket
// indicates the endsystem was offline for that hour).
func MeanExcludingZeros(samples []float64) float64 {
	var sum float64
	n := 0
	for _, v := range samples {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile: the smallest
// sample with at least p percent of the samples at or below it.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first, in tenths of a percent so the sample arithmetic is exact.
var tailLadder = []int{999, 995, 990, 980, 950, 900, 800, 750, 500}

// tailPct returns the highest percentile of tailLadder that still has at
// least ten of n samples beyond it. A p99 over 8 samples is the maximum
// under another name; below twenty samples nothing past the median is
// supported and the tail is reported at p50.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p)/1000 >= 10 {
			return float64(p) / 10
		}
	}
	return 50
}

// censoredDelay is the censoring rule for time-to-completeness: a query
// that reached the target reports the delay at which it did; one that
// did not by the time it ended is charged its whole lifetime (the
// deadline for an ad-hoc query, injection to window end for a persistent
// one) and reported as censored, so a run that loses results cannot look
// faster than one that delivers them.
func censoredDelay(reached bool, reachedAfter, lifetime time.Duration) (d time.Duration, censored bool) {
	if reached {
		return reachedAfter, false
	}
	return lifetime, true
}

// querySamples are one or more repetitions' per-query measurements.
type querySamples struct {
	ttfr, t99 []float64 // virtual ms, one per query
	complete  []float64 // % of the all-endsystem truth, one per query
	predErr   []float64 // points, one per query and checkpoint
	censored  int
}

func (q *querySamples) add(o querySamples) {
	q.ttfr = append(q.ttfr, o.ttfr...)
	q.t99 = append(q.t99, o.t99...)
	q.complete = append(q.complete, o.complete...)
	q.predErr = append(q.predErr, o.predErr...)
	q.censored += o.censored
}

// metrics writes the per-query metrics of the samples into m. A delay
// is left out where no query has one: predict2k sends no message, and a
// live feed has no available truth to time a t99 against.
func (q *querySamples) metrics(m map[string]float64) {
	tail := tailPct(len(q.ttfr))
	if len(q.ttfr) > 0 {
		m["tail_pct"] = tail
		m["ttfr_ms_p50"] = percentile(q.ttfr, 50)
		m["ttfr_ms_tail"] = percentile(q.ttfr, tail)
	}
	if len(q.t99) > 0 {
		m["t99_ms_p50"] = percentile(q.t99, 50)
		m["t99_ms_tail"] = percentile(q.t99, tail)
		m["censored"] = float64(q.censored)
	}
	m["completeness_end_pct"] = mean(q.complete)
	m["predictor_err_pct"] = mean(q.predErr)
	m["predictor_fit_pct"] = 100 - mean(q.predErr)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Package coords maintains per-endsystem Vivaldi network coordinates from
// RTT samples observed on existing protocol traffic, and answers two
// questions for the layers above: "what is the predicted RTT between two
// endsystems?" (used to bias delegate and aggregation-parent selection
// toward nearby peers) and "which endsystems lie within T ms of a query's
// injector?" (RTT-scoped queries, answered exactly over a frozen
// coordinate snapshot with geometric bounding-ball pruning).
//
// The coordinate model is the classic Vivaldi embedding (Dabek et al.,
// SIGCOMM 2004) as deployed by Serf: a 3-D Euclidean point plus a
// non-negative height modeling the access-link delay, an adaptive
// timestep δ = c_c·w weighted by the relative error estimates of the two
// sides, and an exponentially-smoothed per-node error estimate. Samples
// carry the remote side's coordinate (piggybacked on messages that already
// flow; wire sizes are unchanged, as a real deployment amortizes the few
// bytes into existing headers), so an update touches only the observer's
// own state.
//
// Determinism under the sharded engine: each endsystem's working
// coordinate is written only by events on its own shard. Reads from other
// shards (RTT prediction during selection, the remote coordinate folded
// into an update) go through a published snapshot that is committed only
// at window barriers, so every read within a window sees the same bytes
// regardless of worker count, and coordinate-biased runs stay
// byte-identical at any shard count.
package coords

import (
	"math"
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Config parameterizes the coordinate subsystem.
type Config struct {
	// Enabled turns the subsystem on. Off (the default) preserves the
	// id-only baseline byte-for-byte: no space is built, no samples are
	// taken, and selection falls back to id arithmetic everywhere.
	Enabled bool
}

// Enabled returns the configuration with the subsystem on.
func Enabled() Config { return Config{Enabled: true} }

const (
	// ce is the error-estimate gain and cc the coordinate timestep gain
	// (Vivaldi's c_e and c_c, both at the value its authors recommend).
	ce = 0.25
	cc = 0.25
	// errorMax caps the relative error estimate (fresh nodes start here).
	errorMax = 1.5
	// heightMin floors the height component, in nanoseconds (100 µs — on
	// the order of the simulated LAN hop).
	heightMin = 1e5
)

// Coord is one Vivaldi coordinate: a 3-D point in nanosecond units plus a
// non-negative height. The predicted RTT between two coordinates is the
// Euclidean distance of the points plus both heights.
type Coord struct {
	X, Y, Z float64
	H       float64
}

// DistanceTo returns the predicted RTT between the two coordinates.
func (c Coord) DistanceTo(o Coord) time.Duration {
	return time.Duration(c.distNS(o))
}

func (c Coord) distNS(o Coord) float64 {
	dx, dy, dz := c.X-o.X, c.Y-o.Y, c.Z-o.Z
	return math.Sqrt(dx*dx+dy*dy+dz*dz) + c.H + o.H
}

func (c Coord) planarDist(o Coord) float64 {
	dx, dy, dz := c.X-o.X, c.Y-o.Y, c.Z-o.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// vivaldi is one endsystem's working coordinate state, owned by the
// endsystem's shard.
type vivaldi struct {
	c       Coord
	err     float64
	samples uint64
	pending bool // queued on a dirty list, awaiting barrier publish
}

// errWindow accumulates relative prediction errors observed by one shard
// since the last barrier fold.
type errWindow struct {
	sum float64
	n   float64
	_   [48]byte // pad to a cache line: shards write these concurrently
}

// Space holds the coordinates of every endsystem in one cluster.
type Space struct {
	net *simnet.Network

	work []vivaldi // indexed by endpoint; owner-shard writes only
	// pub/pubErr are the published snapshot every cross-shard read uses:
	// stable within a window, committed single-threaded at barriers (or
	// immediately when the engine is serial or idle).
	pub    []Coord
	pubErr []float64
	multi  bool      // deferred publishing (multi-shard engine)
	dirty  [][]int32 // per-shard endpoints awaiting publish

	// Folded relative-error statistics behind the coords_error gauge.
	// Per-shard windows accumulate in event order and are folded in shard
	// order at barriers, keeping the gauge byte-identical at any worker
	// count.
	errAcc []errWindow
	errSum float64
	errN   float64

	// Identifier index (SetIDs): endpoint ids and the id-sorted endpoint
	// order the scope ball trees are built over.
	idOf      []ids.ID
	order     []int32  // endpoints sorted by id
	sortedIDs []ids.ID // idOf permuted by order

	gErr     *obs.Gauge     // coords_error: mean relative prediction error
	cUpdates *obs.Counter   // coords_updates
	hRelErr  *obs.Histogram // coords_rel_error_ppm

	scopes scopeTable
}

// NewSpace builds the coordinate space for a network. Every endpoint
// starts at the origin with maximal error; coordinates take shape as
// samples arrive. The Config carries only the on switch, which the caller
// has read by the time it builds a space.
func NewSpace(net *simnet.Network, _ Config) *Space {
	n := net.NumEndpoints()
	o := net.Obs()
	s := &Space{
		net:    net,
		work:   make([]vivaldi, n),
		pub:    make([]Coord, n),
		pubErr: make([]float64, n),

		gErr:     o.Gauge("coords_error"),
		cUpdates: o.Counter("coords_updates"),
		hRelErr:  o.Histogram("coords_rel_error_ppm"),
	}
	for i := range s.work {
		s.work[i].c.H = heightMin
		s.work[i].err = errorMax
		s.pub[i] = s.work[i].c
		s.pubErr[i] = errorMax
	}
	s.scopes.init()
	if ns := net.NumShards(); ns > 1 {
		s.multi = true
		s.dirty = make([][]int32, ns)
		s.errAcc = make([]errWindow, ns)
		net.OnBarrier(s.commit)
	}
	return s
}

// SetIDs installs the endpoint→endsystemId assignment (endpoint i has
// idList[i]) and builds the id-sorted order RTT-scope queries index by.
func (s *Space) SetIDs(idList []ids.ID) {
	s.idOf = idList
	s.order = make([]int32, len(idList))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	sort.Slice(s.order, func(a, b int) bool {
		return idList[s.order[a]].Less(idList[s.order[b]])
	})
	s.sortedIDs = make([]ids.ID, len(idList))
	for i, ep := range s.order {
		s.sortedIDs[i] = idList[ep]
	}
}

// Observe folds one RTT sample into self's coordinate: self measured rtt
// to peer, whose published coordinate models the piggybacked remote
// coordinate on the sampled message. Must be called from an event on
// self's shard (protocol receive paths are).
func (s *Space) Observe(self, peer simnet.Endpoint, rtt time.Duration) {
	if rtt <= 0 || self == peer {
		return
	}
	w := &s.work[self]
	rc, re := s.pub[peer], s.pubErr[peer]
	sample := float64(rtt)
	dist := w.c.distNS(rc)

	relErr := math.Abs(dist-sample) / sample
	total := w.err + re
	if total <= 0 {
		total = 1e-9
	}
	weight := w.err / total
	w.err = relErr*ce*weight + w.err*(1-ce*weight)
	if w.err > errorMax {
		w.err = errorMax
	}
	// Adaptive timestep: confident nodes move little for a noisy peer,
	// fresh nodes jump toward confident ones.
	force := cc * weight * (sample - dist)
	s.applyForce(w, rc, force, self, peer)
	w.samples++

	s.cUpdates.Inc()
	s.hRelErr.Observe(int64(relErr * 1e6))
	if s.multi && s.net.Running() {
		sh := s.net.ShardOf(self)
		acc := &s.errAcc[sh]
		acc.sum += relErr
		acc.n++
		if !w.pending {
			w.pending = true
			s.dirty[sh] = append(s.dirty[sh], int32(self))
		}
	} else {
		// Serial engine, or a quiescent sharded engine (construction,
		// between RunUntil calls): publish immediately.
		s.pub[self] = w.c
		s.pubErr[self] = w.err
		s.errSum += relErr
		s.errN++
		s.gErr.Set(s.errSum / s.errN)
	}
}

// applyForce moves w's coordinate along the unit vector away from rc by
// force nanoseconds (toward it when force is negative), updating the
// height in proportion.
func (s *Space) applyForce(w *vivaldi, rc Coord, force float64, self, peer simnet.Endpoint) {
	dx, dy, dz := w.c.X-rc.X, w.c.Y-rc.Y, w.c.Z-rc.Z
	mag := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if mag > 1e-6 {
		inv := 1 / mag
		dx, dy, dz = dx*inv, dy*inv, dz*inv
		w.c.H += (w.c.H + rc.H) * force / mag
		if w.c.H < heightMin {
			w.c.H = heightMin
		}
	} else {
		// Coincident points: pick a deterministic pseudo-random direction
		// (a seeded RNG would be shared mutable state across shards; a
		// hash of the participants and the sample count is not).
		dx, dy, dz = unitFromHash(uint64(self)<<32 ^ uint64(peer) ^ w.samples*0x9e3779b97f4a7c15)
	}
	w.c.X += dx * force
	w.c.Y += dy * force
	w.c.Z += dz * force
}

// unitFromHash derives a deterministic unit vector from a hash seed
// (SplitMix64 finalizer per component).
func unitFromHash(seed uint64) (x, y, z float64) {
	next := func() float64 {
		seed += 0x9e3779b97f4a7c15
		v := seed
		v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
		v = (v ^ v>>27) * 0x94d049bb133111eb
		v ^= v >> 31
		return float64(v>>11)/float64(1<<53) - 0.5
	}
	x, y, z = next(), next(), next()
	mag := math.Sqrt(x*x + y*y + z*z)
	if mag < 1e-9 {
		return 1, 0, 0
	}
	return x / mag, y / mag, z / mag
}

// commit publishes dirty working coordinates and folds the per-shard
// error windows, in shard order — it runs single-threaded at every window
// barrier.
func (s *Space) commit() {
	for sh := range s.dirty {
		for _, ep := range s.dirty[sh] {
			w := &s.work[ep]
			s.pub[ep] = w.c
			s.pubErr[ep] = w.err
			w.pending = false
		}
		s.dirty[sh] = s.dirty[sh][:0]
		acc := &s.errAcc[sh]
		if acc.n > 0 {
			s.errSum += acc.sum
			s.errN += acc.n
			acc.sum, acc.n = 0, 0
		}
	}
	if s.errN > 0 {
		s.gErr.Set(s.errSum / s.errN)
	}
}

// PredictRTT returns the coordinate-predicted RTT between two endpoints,
// from the published snapshot (stable within a scheduling window).
func (s *Space) PredictRTT(a, b simnet.Endpoint) time.Duration {
	if a == b {
		return 0
	}
	return s.pub[a].DistanceTo(s.pub[b])
}

// Coordinate returns an endpoint's published coordinate.
func (s *Space) Coordinate(ep simnet.Endpoint) Coord { return s.pub[ep] }

// ErrorEstimate returns an endpoint's published relative-error estimate.
func (s *Space) ErrorEstimate(ep simnet.Endpoint) float64 { return s.pubErr[ep] }

// MeanError returns the running mean relative prediction error across all
// folded samples (the coords_error gauge).
func (s *Space) MeanError() float64 { return s.gErr.Value() }

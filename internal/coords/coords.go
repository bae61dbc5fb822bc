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

// vivaldi is one endsystem's coordinate state.
type vivaldi struct {
	c       Coord
	err     float64
	samples uint64
}

// Space holds the coordinates of every endsystem in one cluster.
type Space struct {
	vs []vivaldi // indexed by endpoint

	// Relative-error statistics behind the coords_error gauge.
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

	scopes map[ids.ID]*scope // RTT scopes by queryId (scope.go)
}

// NewSpace builds the coordinate space for a network. Every endpoint
// starts at the origin with maximal error; coordinates take shape as
// samples arrive. The Config carries only the on switch, which the caller
// has read by the time it builds a space.
func NewSpace(net *simnet.Network, _ Config) *Space {
	n := net.NumEndpoints()
	o := net.Obs()
	s := &Space{
		vs:     make([]vivaldi, n),
		scopes: make(map[ids.ID]*scope),

		gErr:     o.Gauge("coords_error"),
		cUpdates: o.Counter("coords_updates"),
		hRelErr:  o.Histogram("coords_rel_error_ppm"),
	}
	for i := range s.vs {
		s.vs[i].c.H = heightMin
		s.vs[i].err = errorMax
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
// to peer, whose current coordinate models the piggybacked remote
// coordinate on the sampled message.
func (s *Space) Observe(self, peer simnet.Endpoint, rtt time.Duration) {
	if rtt <= 0 || self == peer {
		return
	}
	w := &s.vs[self]
	rc, re := s.vs[peer].c, s.vs[peer].err
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
	s.errSum += relErr
	s.errN++
	s.gErr.Set(s.errSum / s.errN)
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
		// from a hash of the participants and the sample count.
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

// PredictRTT returns the coordinate-predicted RTT between two endpoints.
func (s *Space) PredictRTT(a, b simnet.Endpoint) time.Duration {
	if a == b {
		return 0
	}
	return s.vs[a].c.DistanceTo(s.vs[b].c)
}

// Coordinate returns an endpoint's coordinate.
func (s *Space) Coordinate(ep simnet.Endpoint) Coord { return s.vs[ep].c }

// ErrorEstimate returns an endpoint's relative-error estimate.
func (s *Space) ErrorEstimate(ep simnet.Endpoint) float64 { return s.vs[ep].err }

// MeanError returns the running mean relative prediction error across all
// samples (the coords_error gauge).
func (s *Space) MeanError() float64 { return s.gErr.Value() }

// RTT-scoped queries: "answer over the endsystems within T ms of the
// injector". When a scoped query is injected, the coordinate space
// freezes a snapshot of every coordinate for that queryId — membership is
// then a pure function of the frozen coordinates, so every delegate that
// asks is answered consistently no matter when it asks, and a brute-force
// oracle over the same snapshot is exact. On top of the frozen snapshot a static
// ball tree over the id-sorted endpoint order lets dissemination prune
// whole id subranges whose coordinate bounding balls fall outside the
// radius, without visiting their members.
package coords

import (
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// scope is one frozen RTT scope: the injector's coordinate, the radius,
// a snapshot of every endpoint's coordinate at injection time, and a
// ball tree over the id-sorted endpoint order for range pruning.
type scope struct {
	injector simnet.Endpoint
	injIdx   int // injector's position in the id-sorted order
	radius   float64
	center   Coord
	frozen   []Coord
	tree     []ballNode
}

// ballNode covers the half-open slice [l, r) of the id-sorted endpoint
// order: the planar centroid of the members, the largest planar distance
// from the centroid to any member, and the largest member height. left
// and right index child nodes; -1 marks a leaf scanned exactly.
type ballNode struct {
	l, r        int32
	cx, cy, cz  float64
	maxPlanar   float64
	maxH        float64
	left, right int32
}

const ballLeafSize = 8

// BeginScope freezes the current coordinates as the membership snapshot
// for qid, with the given injector and RTT radius. Idempotent
// per queryId (injection retries re-route the same query).
func (s *Space) BeginScope(qid ids.ID, injector simnet.Endpoint, radius time.Duration) {
	if radius <= 0 || len(s.order) == 0 {
		return
	}
	if _, ok := s.scopes[qid]; ok {
		return
	}
	sc := &scope{
		injector: injector,
		radius:   float64(radius),
		frozen:   make([]Coord, len(s.vs)),
	}
	for i := range s.vs {
		sc.frozen[i] = s.vs[i].c
	}
	sc.center = sc.frozen[injector]
	for i, ep := range s.order {
		if ep == int32(injector) {
			sc.injIdx = i
			break
		}
	}
	sc.build(s.order)
	s.scopes[qid] = sc
}

// HasScope reports whether qid was injected with an RTT scope.
func (s *Space) HasScope(qid ids.ID) bool { return s.scopes[qid] != nil }

// EndScope drops a query's frozen snapshot (call once the query handle is
// fully drained; scopes are otherwise retained for the cluster lifetime).
func (s *Space) EndScope(qid ids.ID) {
	delete(s.scopes, qid)
}

// dist is the membership metric: predicted RTT from the injector to ep
// over the frozen snapshot. The injector is in scope by definition (its
// self-distance is zero, not twice its height).
func (sc *scope) dist(ep simnet.Endpoint) float64 {
	if ep == sc.injector {
		return 0
	}
	return sc.center.distNS(sc.frozen[ep])
}

// InScope reports whether ep is inside qid's RTT scope. Unscoped queries
// (no registered scope) include everyone.
func (s *Space) InScope(qid ids.ID, ep simnet.Endpoint) bool {
	sc := s.scopes[qid]
	if sc == nil {
		return true
	}
	return sc.dist(ep) <= sc.radius
}

// InScopeID is InScope keyed by endsystemId — used when gating
// contributions made on behalf of an unavailable endsystem, whose
// metadata record carries only its id.
func (s *Space) InScopeID(qid ids.ID, id ids.ID) bool {
	sc := s.scopes[qid]
	if sc == nil {
		return true
	}
	i := sort.Search(len(s.sortedIDs), func(i int) bool { return !s.sortedIDs[i].Less(id) })
	if i >= len(s.sortedIDs) || s.sortedIDs[i] != id {
		return true // unknown id: never prune what we cannot place
	}
	return sc.dist(simnet.Endpoint(s.order[i])) <= sc.radius
}

// RangeInScope reports whether any endsystem whose id lies in the
// inclusive range [lo, hi] is inside qid's RTT scope. Dissemination uses
// a false answer to prune the whole subrange. The answer is exact: ball
// bounds only ever short-circuit, leaves are scanned member by member.
func (s *Space) RangeInScope(qid ids.ID, lo, hi ids.ID) bool {
	sc := s.scopes[qid]
	if sc == nil {
		return true
	}
	iLo := sort.Search(len(s.sortedIDs), func(i int) bool { return !s.sortedIDs[i].Less(lo) })
	iHi := sort.Search(len(s.sortedIDs), func(i int) bool { return hi.Less(s.sortedIDs[i]) })
	if iLo >= iHi {
		return false // no endsystem ids in the range at all
	}
	return sc.anyIn(s, 0, int32(iLo), int32(iHi))
}

// ScopeMembers brute-forces the member set over the frozen snapshot —
// the oracle the ball tree and the protocol are validated against.
func (s *Space) ScopeMembers(qid ids.ID) ([]simnet.Endpoint, bool) {
	sc := s.scopes[qid]
	if sc == nil {
		return nil, false
	}
	var out []simnet.Endpoint
	for ep := range sc.frozen {
		if sc.dist(simnet.Endpoint(ep)) <= sc.radius {
			out = append(out, simnet.Endpoint(ep))
		}
	}
	return out, true
}

// build constructs the ball tree bottom-up over the id-sorted order.
func (sc *scope) build(order []int32) {
	sc.tree = sc.tree[:0]
	sc.buildRange(order, 0, int32(len(order)))
}

func (sc *scope) buildRange(order []int32, l, r int32) int32 {
	idx := int32(len(sc.tree))
	sc.tree = append(sc.tree, ballNode{l: l, r: r, left: -1, right: -1})
	var cx, cy, cz float64
	for i := l; i < r; i++ {
		c := sc.frozen[order[i]]
		cx += c.X
		cy += c.Y
		cz += c.Z
	}
	inv := 1 / float64(r-l)
	cx, cy, cz = cx*inv, cy*inv, cz*inv
	var maxPlanar, maxH float64
	centroid := Coord{X: cx, Y: cy, Z: cz}
	for i := l; i < r; i++ {
		c := sc.frozen[order[i]]
		if d := centroid.planarDist(c); d > maxPlanar {
			maxPlanar = d
		}
		if c.H > maxH {
			maxH = c.H
		}
	}
	n := &sc.tree[idx]
	n.cx, n.cy, n.cz = cx, cy, cz
	n.maxPlanar, n.maxH = maxPlanar, maxH
	if r-l > ballLeafSize {
		mid := (l + r) / 2
		left := sc.buildRange(order, l, mid)
		right := sc.buildRange(order, mid, r)
		n = &sc.tree[idx] // reload: appends may have moved the slice
		n.left, n.right = left, right
	}
	return idx
}

// anyIn reports whether any member in sorted positions [iLo, iHi) is
// within the radius, descending node idx.
func (sc *scope) anyIn(s *Space, idx, iLo, iHi int32) bool {
	n := &sc.tree[idx]
	if n.r <= iLo || n.l >= iHi {
		return false
	}
	covered := iLo <= n.l && n.r <= iHi
	if covered {
		if n.l <= int32(sc.injIdx) && int32(sc.injIdx) < n.r {
			return true // the injector is always in scope
		}
		centroid := Coord{X: n.cx, Y: n.cy, Z: n.cz}
		pd := sc.center.planarDist(centroid)
		// Every member p satisfies d(q,p) = ‖q−p‖ + h_q + h_p ≥
		// ‖q−c‖ − ‖c−p‖ + h_q (heights are non-negative), so if the
		// lower bound clears the radius the whole ball is out.
		if pd+sc.center.H-n.maxPlanar > sc.radius {
			return false
		}
		// And d(q,p) ≤ ‖q−c‖ + ‖c−p‖ + h_q + h_p, so if the upper bound
		// fits, some (indeed every) member is in.
		if pd+n.maxPlanar+sc.center.H+n.maxH <= sc.radius {
			return true
		}
	}
	if n.left < 0 {
		lo, hi := n.l, n.r
		if iLo > lo {
			lo = iLo
		}
		if iHi < hi {
			hi = iHi
		}
		order := s.order
		for i := lo; i < hi; i++ {
			if sc.dist(simnet.Endpoint(order[i])) <= sc.radius {
				return true
			}
		}
		return false
	}
	return sc.anyIn(s, n.left, iLo, iHi) || sc.anyIn(s, n.right, iLo, iHi)
}

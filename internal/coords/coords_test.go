package coords

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// testSpace builds a space over a fresh clustered topology with n
// endpoints and an obs layer attached.
func testSpace(t *testing.T, n int, seed int64) (*Space, *simnet.Network) {
	t.Helper()
	topo := simnet.GenerateTopology(simnet.DefaultTopologyConfig(), seed)
	net := simnet.NewNetwork(simnet.NewWheel(), topo, n, simnet.DefaultNetworkConfig())
	net.SetObs(obs.New())
	return NewSpace(net, Enabled()), net
}

// train feeds rounds of RTT samples between deterministic random pairs,
// each sample being the topology's true round trip.
func train(s *Space, net *simnet.Network, n, rounds int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			peer := simnet.Endpoint(rng.Intn(n))
			if peer == simnet.Endpoint(i) {
				continue
			}
			s.Observe(simnet.Endpoint(i), peer, 2*net.Delay(simnet.Endpoint(i), peer))
		}
	}
}

// TestVivaldiConvergence trains the space on true topology round trips and
// checks the embedding predicts held-out pairs well: the median relative
// prediction error must come down far below the untrained baseline.
func TestVivaldiConvergence(t *testing.T) {
	const n = 120
	s, net := testSpace(t, n, 7)
	relErr := func() float64 {
		rng := rand.New(rand.NewSource(99))
		var errs []float64
		for k := 0; k < 500; k++ {
			a, b := simnet.Endpoint(rng.Intn(n)), simnet.Endpoint(rng.Intn(n))
			if a == b {
				continue
			}
			actual := float64(2 * net.Delay(a, b))
			errs = append(errs, math.Abs(float64(s.PredictRTT(a, b))-actual)/actual)
		}
		// median
		for i := range errs {
			for j := i + 1; j < len(errs); j++ {
				if errs[j] < errs[i] {
					errs[i], errs[j] = errs[j], errs[i]
				}
			}
		}
		return errs[len(errs)/2]
	}
	before := relErr()
	train(s, net, n, 60, 5)
	after := relErr()
	if after > 0.30 {
		t.Fatalf("median relative prediction error %.3f after training (want <= 0.30; untrained %.3f)", after, before)
	}
	if after >= before/2 {
		t.Fatalf("training barely helped: median error %.3f -> %.3f", before, after)
	}
	if me := s.MeanError(); me <= 0 || me > errorMax {
		t.Fatalf("mean error %.3f out of range", me)
	}
}

// TestObserveDeterminism feeds two spaces the identical sample stream and
// requires bit-identical coordinates: no hidden state (map order, a
// shared rng) leaks into an update.
func TestObserveDeterminism(t *testing.T) {
	const n = 40
	s1, net := testSpace(t, n, 3)
	s2, _ := testSpace(t, n, 3)
	train(s1, net, n, 20, 11)
	train(s2, net, n, 20, 11)
	for ep := 0; ep < n; ep++ {
		if s1.Coordinate(simnet.Endpoint(ep)) != s2.Coordinate(simnet.Endpoint(ep)) {
			t.Fatalf("endpoint %d: coordinates diverged under identical samples", ep)
		}
		if s1.ErrorEstimate(simnet.Endpoint(ep)) != s2.ErrorEstimate(simnet.Endpoint(ep)) {
			t.Fatalf("endpoint %d: error estimates diverged under identical samples", ep)
		}
	}
}

// TestScopeMatchesBruteForce checks the ball-tree range pruning against
// exhaustive membership over many random id ranges and radii: a pruned
// range must contain no member, an accepted range at least one.
func TestScopeMatchesBruteForce(t *testing.T) {
	const n = 150
	s, net := testSpace(t, n, 13)
	train(s, net, n, 40, 17)
	rng := rand.New(rand.NewSource(41))
	idList := ids.RandomN(rng, n)
	s.SetIDs(idList)

	for trial := 0; trial < 20; trial++ {
		injector := simnet.Endpoint(rng.Intn(n))
		// Radius spread around the typical coordinate distance so scopes
		// range from nearly-empty to nearly-everyone.
		radius := time.Duration(rng.Intn(60)+1) * time.Millisecond
		qid := idList[rng.Intn(n)]
		s.BeginScope(qid, injector, radius)

		members, ok := s.ScopeMembers(qid)
		if !ok {
			t.Fatalf("trial %d: scope not registered", trial)
		}
		inScope := make(map[simnet.Endpoint]bool, len(members))
		for _, ep := range members {
			if !s.InScope(qid, ep) {
				t.Fatalf("trial %d: ScopeMembers and InScope disagree on %d", trial, ep)
			}
			inScope[ep] = true
		}
		if !inScope[injector] {
			t.Fatalf("trial %d: injector %d not in its own scope", trial, injector)
		}
		for ep := 0; ep < n; ep++ {
			if !s.InScopeID(qid, idList[ep]) != !inScope[simnet.Endpoint(ep)] {
				t.Fatalf("trial %d: InScopeID and InScope disagree on endpoint %d", trial, ep)
			}
		}
		for rr := 0; rr < 200; rr++ {
			lo, hi := idList[rng.Intn(n)], idList[rng.Intn(n)]
			if hi.Less(lo) {
				lo, hi = hi, lo
			}
			want := false
			for ep := 0; ep < n; ep++ {
				if inScope[simnet.Endpoint(ep)] && idList[ep].InRange(lo, hi) {
					want = true
					break
				}
			}
			if got := s.RangeInScope(qid, lo, hi); got != want {
				t.Fatalf("trial %d range %d: RangeInScope=%v, brute force=%v (radius %v)",
					trial, rr, got, want, radius)
			}
		}
		s.EndScope(qid)
	}
}

// TestScopeFrozen checks that membership does not drift after injection:
// further coordinate movement must not change a registered scope.
func TestScopeFrozen(t *testing.T) {
	const n = 60
	s, net := testSpace(t, n, 19)
	train(s, net, n, 20, 23)
	rng := rand.New(rand.NewSource(29))
	idList := ids.RandomN(rng, n)
	s.SetIDs(idList)
	qid := idList[0]
	s.BeginScope(qid, 0, 25*time.Millisecond)
	before, _ := s.ScopeMembers(qid)
	train(s, net, n, 30, 31) // keep moving the live coordinates
	after, _ := s.ScopeMembers(qid)
	if len(before) != len(after) {
		t.Fatalf("scope membership drifted after injection: %d -> %d members", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("scope membership drifted after injection at member %d", i)
		}
	}
}

package aggtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/ids"
)

// del removes id's entry. The protocol never forgets a child; the oracle
// test does, so that put also meets ids it has held before.
func (t *childTable) del(id ids.ID) {
	if i, ok := t.find(id); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}

func randomContribution(rng *rand.Rand) contribution {
	var p agg.Partial
	for n := rng.Intn(3); n >= 0; n-- {
		p.Observe(rng.NormFloat64() * 1e3)
	}
	return contribution{Version: uint64(rng.Intn(100)), Part: p, Contributors: int64(1 + rng.Intn(50))}
}

// sameAsMap fails unless tab holds exactly the oracle's entries, in
// strictly ascending id order, and every accessor agrees with it.
func sameAsMap(t *testing.T, what string, step int, tab childTable, oracle map[ids.ID]contribution, pool []ids.ID) {
	t.Helper()
	if len(tab) != len(oracle) {
		t.Fatalf("step %d: %s holds %d entries, oracle %d", step, what, len(tab), len(oracle))
	}
	for i, e := range tab {
		if i > 0 && !tab[i-1].id.Less(e.id) {
			t.Fatalf("step %d: %s not strictly ascending at %d", step, what, i)
		}
		if want, ok := oracle[e.id]; !ok || want != e.c {
			t.Fatalf("step %d: %s[%v] = %+v, oracle %+v (present %v)", step, what, e.id, e.c, want, ok)
		}
	}
	for _, id := range pool {
		got, ok := tab.get(id)
		want, wantOK := oracle[id]
		if ok != wantOK || got != want {
			t.Fatalf("step %d: %s.get(%v) = %+v, %v; oracle %+v, %v", step, what, id, got, ok, want, wantOK)
		}
		// find: the entry's index, or the one place id would keep the order.
		i, found := tab.find(id)
		switch {
		case found != wantOK,
			found && tab[i].id != id,
			!found && i < len(tab) && !id.Less(tab[i].id),
			!found && i > 0 && !tab[i-1].id.Less(id):
			t.Fatalf("step %d: %s.find(%v) = %d, %v", step, what, id, i, found)
		}
	}
}

// TestChildTableAgainstMap drives the ordered child table and the map it
// replaced through the same seeded random puts, replacements, reads,
// removals and clones. After every step the table must hold what the map
// holds, sorted, and the latest clone what the map held when it was taken.
func TestChildTableAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few enough ids that replacements and hits are common, enough that
		// the table passes the sizes vertices have (1 to about 40 children).
		pool := ids.RandomN(rng, 8<<uint(seed%4))
		var tab, snap childTable
		oracle, snapOracle := map[ids.ID]contribution{}, map[ids.ID]contribution{}
		if c := tab.clone(); c == nil || len(c) != 0 {
			t.Fatalf("clone of the empty table is %#v: nil means \"one entry inline\" in a replMsg", c)
		}
		for step := 0; step < 3000; step++ {
			id := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(100); {
			case op < 55: // a new child, or a replacement
				c := randomContribution(rng)
				tab.put(id, c)
				oracle[id] = c
			case op < 80:
				tab.del(id)
				delete(oracle, id)
			case op < 90:
				snap = tab.clone()
				snapOracle = make(map[ids.ID]contribution, len(oracle))
				for k, v := range oracle {
					snapOracle[k] = v
				}
			default: // reads only: the checks below
			}
			sameAsMap(t, "table", step, tab, oracle, pool)
			sameAsMap(t, "clone", step, snap, snapOracle, pool)
		}
	}
}

// TestAggregateOrderIndependent: a vertex's aggregate is a function of the
// contributions it holds, not of the order they arrived in — including a
// floating-point SUM, which a fold in map order rounded differently from
// one call to the next.
func TestAggregateOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 40
	children := ids.RandomN(rng, n)
	cs := make([]contribution, n)
	for i := range cs {
		var p agg.Partial
		// Magnitudes 26 orders apart: almost any two fold orders round apart.
		p.Observe(rng.Float64() * math.Pow(10, float64(rng.Intn(27)-10)))
		cs[i] = contribution{Version: 1, Part: p, Contributors: 1}
	}
	build := func(order []int) (agg.Partial, int64, float64) {
		v := &vertexState{}
		var arrival float64
		for _, i := range order {
			v.children.put(children[i], cs[i])
			arrival += cs[i].Part.Sum
		}
		part, contributors := v.aggregate()
		return part, contributors, arrival
	}
	forward := rng.Perm(n)
	shuffled := rng.Perm(n)
	pa, ca, sumA := build(forward)
	pb, cb, sumB := build(shuffled)
	if sumA == sumB {
		t.Fatal("the two arrival orders fold to the same SUM: the inputs do not test anything")
	}
	if math.Float64bits(pa.Sum) != math.Float64bits(pb.Sum) || pa != pb || ca != cb {
		t.Fatalf("aggregate depends on arrival order:\n %+v (%d contributors)\n %+v (%d contributors)", pa, ca, pb, cb)
	}
	if ca != n || pa.Count != n {
		t.Fatalf("aggregate covers %d contributors, %d rows; want %d", ca, pa.Count, n)
	}
}

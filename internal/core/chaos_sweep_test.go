package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/runner"
)

// chaosSweepSeeds is how many seeds TestChaosSweep drives each built-in
// scenario over, at full scale.
const chaosSweepSeeds = 60

// chaosKnownIncomplete pins the full-scale runs that end short of every row
// (eventual_completeness) — ROADMAP item 1's open list, per scenario in seed
// order. It may only shrink: TestChaosSweep fails when a run outside it
// ends incomplete, and fails when a run inside it completes, until the seed
// is deleted here.
var chaosKnownIncomplete = map[string][]int64{
	"partition": {1, 5, 10, 12, 26, 27, 33, 36, 45, 46},
	"flap":      {4, 7},
	"mixed":     {18},
}

// verdict returns the named end-of-run invariant's verdict.
func verdict(t *testing.T, r *fault.Report, invariant string) fault.InvariantVerdict {
	t.Helper()
	for _, v := range r.Invariants {
		if v.Invariant == invariant {
			return v
		}
	}
	t.Fatalf("%s seed %d: no %s verdict", r.Scenario, r.Seed, invariant)
	return fault.InvariantVerdict{}
}

// TestChaosSweep is the full-scale chaos sweep as a ratchet: every built-in
// scenario at seeds 1..60, 300 runs. Exactly-once aggregation must hold on
// all of them, and the set of runs that end incomplete must be exactly the
// pinned list. The log carries each run's verdict and network sends, and
// the count of no_dissemination_giveup failures, which moves with the loss
// draws (5 to 9 of 300) and is not asserted.
func TestChaosSweep(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("300 full-scale chaos runs")
	}
	names := fault.BuiltinNames()
	reports := make([]*fault.Report, len(names)*chaosSweepSeeds)
	runner.ForEach(len(reports), 0, func(i int) {
		s, _ := fault.Builtin(names[i/chaosSweepSeeds], false)
		reports[i] = RunChaos(ChaosConfig{Scenario: s, Seed: int64(i%chaosSweepSeeds + 1)})
	})

	giveups := 0
	for i, name := range names {
		var incomplete []int64
		var sends10 int64
		for _, r := range reports[i*chaosSweepSeeds : (i+1)*chaosSweepSeeds] {
			if v := verdict(t, r, fault.InvariantExactlyOnce); !v.Pass {
				t.Errorf("%s seed %d: exactly_once_aggregation failed: %s", name, r.Seed, v.Detail)
			}
			complete := verdict(t, r, fault.InvariantCompleteness)
			if !complete.Pass {
				incomplete = append(incomplete, r.Seed)
			}
			if !verdict(t, r, fault.InvariantNoGiveups).Pass {
				giveups++
			}
			if r.Seed <= 10 {
				sends10 += r.Hedges.NetSends
			}
			var failed []string
			for _, v := range r.Invariants {
				if !v.Pass {
					failed = append(failed, v.Invariant)
				}
			}
			t.Logf("%-9s seed %2d: %s, %d sends, ok=%v %s", name, r.Seed, complete.Detail,
				r.Hedges.NetSends, r.OK(), strings.Join(failed, " "))
		}
		t.Logf("%-9s incomplete at seeds %v; %d network sends over seeds 1-10", name, incomplete, sends10)
		known := chaosKnownIncomplete[name]
		for _, seed := range incomplete {
			if !slices.Contains(known, seed) {
				t.Errorf("%s seed %d ends incomplete and is not on the pinned list", name, seed)
			}
		}
		for _, seed := range known {
			if !slices.Contains(incomplete, seed) {
				t.Errorf("%s seed %d now completes: delete it from the list in chaosKnownIncomplete", name, seed)
			}
		}
	}
	t.Logf("no_dissemination_giveup failed on %d of %d runs", giveups, len(reports))
}

// TestChaosMixed50AckedByMinorityPrimary is the tooth of the rule that an
// ack stands only for the primary that gave it. In this run five leaves
// submit inside the partition window and are acknowledged by the endsystem
// their side of the cut takes for the entry vertex's primary; without the
// re-assertion on a leafset change that names another root the run ends at
// 876 of 901 rows.
func TestChaosMixed50AckedByMinorityPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("one full-scale chaos run")
	}
	s, _ := fault.Builtin("mixed", false)
	r := RunChaos(ChaosConfig{Scenario: s, Seed: 50})
	if !r.OK() {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("mixed seed 50 failed:\n%s", buf.String())
	}
}

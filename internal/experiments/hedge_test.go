package experiments

import (
	"bytes"
	"testing"
)

// hedgeStudySeeds are the paired seeds the smoke gate judges.
// Re-assertions shift the per-message loss draws, so individual pairs can
// tie or lose (seeds whose tail subtree was never the bottleneck) — the
// gate is on the tail across seeds, where the ladder must strictly win.
var hedgeStudySeeds = []int64{1, 2, 3, 4, 5}

// hedgeSendsBudget is the most extra messages the ladder may cost over the
// ablated runs (measured: 2.3% at smoke scale, 1.6% at full scale).
const hedgeSendsBudget = 1.05

// checkHedgeTeeth asserts the study's two teeth: tail completion with the
// ladder on strictly beats the ablated runs, within the message budget.
func checkHedgeTeeth(t *testing.T, r *HedgeStudyResult) {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	t.Logf("\n%s", buf.String())
	if r.TotalReasserts == 0 {
		t.Fatal("no re-assertion fired across any seed: the ladder never engaged")
	}
	if r.HedgedP99 >= r.AblatedP99 {
		t.Fatalf("hedged p99 completion %v does not strictly beat ablated %v: the ablation has no teeth",
			r.HedgedP99, r.AblatedP99)
	}
	if r.SendsRatio > hedgeSendsBudget {
		t.Fatalf("the ladder cost %.1f%% extra messages, budget is %.0f%%",
			100*(r.SendsRatio-1), 100*(hedgeSendsBudget-1))
	}
}

// TestHedgeSmoke is the ablation tooth for the re-assertion ladder: under
// the straggler scenario (slow region cohorts + correlated burst loss +
// duplication), tail completion with the ladder on must strictly beat the
// ablated runs, at no more than 5% extra messages, with every invariant
// passing in both modes and both modes converging to the same final rows.
func TestHedgeSmoke(t *testing.T) {
	r := HedgeStudy(hedgeStudySeeds, true, 0)

	for _, p := range r.Pairs {
		if !p.HedgedOK {
			t.Errorf("seed %d: hedged run violated a fault invariant", p.Seed)
		}
		if !p.AblatedOK {
			t.Errorf("seed %d: ablated run violated a fault invariant", p.Seed)
		}
		if !p.RowsEqual {
			t.Errorf("seed %d: hedged and ablated runs converged to different final rows", p.Seed)
		}
		if p.HedgedComplete < 0 {
			t.Errorf("seed %d: hedged run never reached 100%% before measurement ended", p.Seed)
		}
	}
	checkHedgeTeeth(t, r)
}

// TestHedgeFullScale holds the same two teeth on the numbers DESIGN.md and
// EXPERIMENTS.md quote: the full-scale straggler scenario over seeds 1..60
// (the logged table is theirs). Invariants are not asserted here — at full
// scale a few seeds fail no_dissemination_giveup in either mode (ROADMAP
// item 3).
func TestHedgeFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("120 full-scale chaos runs")
	}
	seeds := make([]int64, 60)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	checkHedgeTeeth(t, HedgeStudy(seeds, false, 0))
}

// TestHedgeStudyDeterministic: the study is a fan-out of chaos runs, each
// byte-deterministic, so the aggregate must be identical at any worker
// count.
func TestHedgeStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("paired chaos runs in -short")
	}
	a := HedgeStudy([]int64{4, 5}, true, 1)
	b := HedgeStudy([]int64{4, 5}, true, 4)
	var ba, bb bytes.Buffer
	a.Render(&ba)
	b.Render(&bb)
	if ba.String() != bb.String() {
		t.Fatalf("study differs across worker counts:\n--- serial ---\n%s--- parallel ---\n%s",
			ba.String(), bb.String())
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestChaosMixedSmokePasses is the headline robustness test: the full
// mixed scenario (jitter, spikes, duplication, two correlated crash
// cohorts, a region partition and a burst-loss episode layered over it)
// must pass every invariant, and the query must demonstrably recover to
// 100% completeness after the final heal.
func TestChaosMixedSmokePasses(t *testing.T) {
	s, ok := fault.Builtin("mixed", true)
	if !ok {
		t.Fatal("mixed scenario missing")
	}
	r := RunChaos(DefaultChaosConfig(s, 1, true))
	if !r.OK() {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("mixed-smoke chaos failed:\n%s", buf.String())
	}
	if len(r.Queries) != 1 {
		t.Fatalf("expected one query verdict, got %d", len(r.Queries))
	}
	q := r.Queries[0]
	if q.FinalCompleteness != 1.0 {
		t.Fatalf("final completeness %.3f, want 1.0", q.FinalCompleteness)
	}
	if !q.RecoveredAfterHeal {
		t.Fatalf("query did not exercise recovery: %.1f%% at heal, %.1f%% at end",
			100*q.CompletenessAtHeal, 100*q.FinalCompleteness)
	}
	if len(r.Injections) != len(s.Injections) {
		t.Fatalf("%d of %d injections executed", len(r.Injections), len(s.Injections))
	}
}

// TestChaosBuiltinsPass runs the remaining built-in smoke scenarios.
func TestChaosBuiltinsPass(t *testing.T) {
	for _, name := range fault.BuiltinNames() {
		if name == "mixed" {
			continue // covered above with stronger assertions
		}
		name := name
		t.Run(name, func(t *testing.T) {
			s, _ := fault.Builtin(name, true)
			r := RunChaos(DefaultChaosConfig(s, 1, true))
			if !r.OK() {
				var buf bytes.Buffer
				r.WriteText(&buf)
				t.Fatalf("%s chaos failed:\n%s", name, buf.String())
			}
		})
	}
}

// TestChaosDeterministic: the same (scenario, seed) must produce a
// byte-identical report — the property that makes chaos failures
// replayable.
func TestChaosDeterministic(t *testing.T) {
	s, _ := fault.Builtin("mixed", true)
	run := func() []byte {
		r := RunChaos(DefaultChaosConfig(s, 1, true))
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestChaosAblations: removing either hardening mechanism must make the
// checker fail — proof the invariants have teeth and the mechanisms are
// load-bearing.
func TestChaosAblations(t *testing.T) {
	s, _ := fault.Builtin("mixed", true)
	t.Run("no-dissem-backoff", func(t *testing.T) {
		cfg := DefaultChaosConfig(s, 1, true)
		cfg.Cluster.Node.Dissem.DisableBackoff = true
		if r := RunChaos(cfg); r.OK() {
			t.Fatal("chaos passed with dissemination backoff disabled; the ablation has no teeth")
		}
	})
	t.Run("no-aggtree-repair", func(t *testing.T) {
		cfg := DefaultChaosConfig(s, 1, true)
		cfg.Cluster.Node.Agg.DisableRepair = true
		if r := RunChaos(cfg); r.OK() {
			t.Fatal("chaos passed with aggregation-tree repair disabled; the ablation has no teeth")
		}
	})
}

// TestChaosReportsPinned pins two SHA-256 digests of every built-in smoke
// scenario's report at seed 1, and of mixed under each ablation and
// straggler with the ladder off: the report with its flight recorder
// cleared (the verdicts, counters and timings) and the flight recorder's
// JSON (the trace events a failing run froze; null on a clean one). A
// change that moves one byte of either fails here, and a change to the
// trace alone is told apart from one to a verdict.
func TestChaosReportsPinned(t *testing.T) {
	noBackoff := func(c *ChaosConfig) { c.Cluster.Node.Dissem.DisableBackoff = true }
	noRepair := func(c *ChaosConfig) { c.Cluster.Node.Agg.DisableRepair = true }
	noLadder := func(c *ChaosConfig) { c.Cluster.Node.Agg.Reassert = false }
	for _, tc := range []struct {
		scenario, ablation string
		ablate             func(*ChaosConfig)
		verdict, flight    string
	}{
		{"partition", "", nil,
			"49a24425b028440128cc4a15e29c5eb5aa6aaf21199091f1b0b8d2116519e487",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"burstloss", "", nil,
			"0cb7ce4e838ebcf69d5a82427d9ee67ae3ef1e0cbf51dbaff4b134c26524f0ba",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"flap", "", nil,
			"1c28e59245f4917c51a45ddc929f64237353d78a67dec5dbc1a20c43cbbeb220",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"mixed", "", nil,
			"37e363c85046e53cfb7e5b790e4e968ce778c7d0ff985ae0024c4a1b18732371",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"straggler", "", nil,
			"12a9e6eca2a64533b2ff3aa33b0566a9060333e62757def0eb37896d56bf1983",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"mixed", "backoff", noBackoff,
			"2c1a05a8939ace0c3b844b8cdc7e97bf2e7f54a69d30ed1881ce6ee57ba3726f",
			"b2cb2036c4b74b0cc209a2d0a868e0553ef4b212baeecb9c1ad864bd1a24cfd4"},
		{"mixed", "repair", noRepair,
			"5758c310d87e8f9f1352abf4bee85993b2838847fb9a7e38650aa0b8955f1e4f",
			"44e752523c2335dfb5491bec39a694081b8b8379318aa86ee3f5509c29a680d0"},
		{"mixed", "reassert", noLadder,
			"6ed4af0f5c257fc6526536c3712fcba65d6ca28580d636995c72f09407c457eb",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{"straggler", "reassert", noLadder,
			"f7c0cf3ba75b892c54b1f86b1c84071164f54f87f7c353b766681bfbf0f844e8",
			"74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
	} {
		s, _ := fault.Builtin(tc.scenario, true)
		cfg := DefaultChaosConfig(s, 1, true)
		if tc.ablate != nil {
			tc.ablate(&cfg)
		}
		r := RunChaos(cfg)
		flight, err := json.Marshal(r.FlightRecorder)
		if err != nil {
			t.Fatal(err)
		}
		r.FlightRecorder = nil
		verdict, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(verdict)); got != tc.verdict {
			t.Errorf("%s-smoke ablate=%q: report sha256 %s, pinned %s", tc.scenario, tc.ablation, got, tc.verdict)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(flight)); got != tc.flight {
			t.Errorf("%s-smoke ablate=%q: flight recorder sha256 %s, pinned %s", tc.scenario, tc.ablation, got, tc.flight)
		}
	}
}

// TestChaosJudgesGivenWorld runs partition-smoke, and flap-smoke with its
// crash cohort, on a world where ten of the sixty endsystems are never
// up. Ground truth is the rows of the fifty that are, and none of the ten
// executes the query, submits to the aggregation tree or counts as a
// contributor: a crash's restart does not bring one up either.
func TestChaosJudgesGivenWorld(t *testing.T) {
	for _, name := range []string{"partition", "flap"} {
		t.Run(name, func(t *testing.T) { testChaosRemovedEndsystems(t, name) })
	}
}

func testChaosRemovedEndsystems(t *testing.T, name string) {
	s, _ := fault.Builtin(name, true)
	cfg := DefaultChaosConfig(s, 1, true)
	removed := map[int]bool{}
	for ep := 3; ep < 60; ep += 6 {
		removed[ep] = true
		cfg.Cluster.Trace.Profiles[ep] = &avail.Profile{}
	}
	sink := &captureSink{}
	cfg.TraceSink = sink
	r := RunChaos(cfg)
	if !r.OK() {
		var buf bytes.Buffer
		r.WriteText(&buf)
		t.Fatalf("%s-smoke with %d endsystems removed failed:\n%s", name, len(removed), buf.String())
	}

	var want int64
	for ep := 0; ep < 60; ep++ {
		if !removed[ep] {
			want += int64(anemone.Generate(cfg.Cluster.Workload, ep).Flow.NumRows())
		}
	}
	if q := r.Queries[0]; q.TruthRows != float64(want) || q.FinalRows != float64(want) {
		t.Fatalf("truth %v rows, final %v, want the %d rows of the up endsystems", q.TruthRows, q.FinalRows, want)
	}
	submits := 0
	for _, ev := range sink.events {
		switch ev.Kind {
		case obs.KindExec, obs.KindAvailExec, obs.KindSubmit:
			if removed[ev.EP] {
				t.Fatalf("removed endsystem %d: %s event at %v", ev.EP, ev.Kind, ev.T)
			}
			if ev.Kind == obs.KindSubmit {
				submits++
			}
		case obs.KindPartial:
			if ev.N > int64(60-len(removed)) {
				t.Fatalf("partial at %v counts %d contributors of %d up endsystems", ev.T, ev.N, 60-len(removed))
			}
		}
	}
	if submits < 60-len(removed) {
		t.Fatalf("%d submissions traced, want one from each of the %d up endsystems", submits, 60-len(removed))
	}
}

// TestChaosSettleMustFitTTL: the settle window and the query TTL are one
// quantity, so a config whose Settle disagrees with its TTL is refused
// instead of judged.
func TestChaosSettleMustFitTTL(t *testing.T) {
	s, _ := fault.Builtin("mixed", true)
	cfg := DefaultChaosConfig(s, 1, true)
	cfg.Settle += time.Minute
	defer func() {
		if recover() == nil {
			t.Fatal("RunChaos judged a run whose settle window outlasts its query TTL")
		}
	}()
	RunChaos(cfg)
}

package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/anemone"
	"repro/internal/avail"
	"repro/internal/relq"
)

func TestQueryHandleUpdatesOrderingAndCancellation(t *testing.T) {
	c := smallCluster(t, 60, 3*24*time.Hour, 3)
	c.RunUntil(24 * time.Hour)

	q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE Bytes > 5000")
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, q)

	// Callback registered before any update sees the whole stream, in
	// virtual-time order, at the instants the updates happen.
	var cbUpdates []ResultUpdate
	var cbAt []time.Duration
	h.OnUpdate(func(u ResultUpdate) {
		cbUpdates = append(cbUpdates, u)
		cbAt = append(cbAt, c.Sched.Now())
	})

	c.RunUntil(c.Sched.Now() + 6*time.Hour)

	if len(cbUpdates) == 0 {
		t.Fatal("no updates delivered to callback")
	}
	if !reflect.DeepEqual(cbUpdates, h.Results) {
		t.Fatal("callback stream differs from the update log")
	}
	for i, u := range cbUpdates {
		if u.At != cbAt[i] {
			t.Fatalf("update %d delivered at %v but stamped %v: not synchronous",
				i, cbAt[i], u.At)
		}
		if i > 0 && u.At < cbUpdates[i-1].At {
			t.Fatalf("update %d out of virtual-time order", i)
		}
	}

	// A callback registered mid-run sees exactly the updates after its
	// registration: nothing already in the log is replayed.
	before := len(h.Results)
	var late []ResultUpdate
	h.OnUpdate(func(u ResultUpdate) { late = append(late, u) })
	c.RunUntil(c.Sched.Now() + 6*time.Hour)
	if len(h.Results) == before {
		t.Fatal("no updates after the mid-run registration; the check is vacuous")
	}
	if !reflect.DeepEqual(late, h.Results[before:]) {
		t.Fatalf("late callback saw %d updates, want the %d after registration",
			len(late), len(h.Results)-before)
	}
	if !reflect.DeepEqual(cbUpdates, h.Results) {
		t.Fatal("first callback's stream differs from the update log")
	}
}

func TestCompletenessStudyDeterministicAcrossParallelism(t *testing.T) {
	// Same seed, Parallelism 1 vs 8: the study must produce deeply equal
	// results — the engine's headline guarantee applied to core.
	trace := avail.GenerateFarsite(avail.DefaultFarsiteConfig(40, 4*24*time.Hour, 11))
	base := CompletenessStudyConfig{
		Trace:    trace,
		Workload: anemone.DefaultConfig(trace.Horizon, 11),
		Queries: []*relq.Query{
			relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"),
			relq.MustParse("SELECT COUNT(*) FROM Flow WHERE Bytes > 20000"),
		},
		InjectAts: []time.Duration{24 * time.Hour, 30 * time.Hour, 48 * time.Hour},
		Lifetime:  24 * time.Hour,
	}
	base.Workload.MeanFlowsPerDay = 40

	serial := base
	serial.Parallelism = 1
	wide := base
	wide.Parallelism = 8

	got1 := RunCompletenessStudy(serial)
	got8 := RunCompletenessStudy(wide)
	if !reflect.DeepEqual(got1, got8) {
		t.Fatal("study results differ between Parallelism 1 and 8")
	}
	if len(got1) != 2 || len(got1[0]) != 3 {
		t.Fatalf("study shape = %dx%d, want 2x3", len(got1), len(got1[0]))
	}
	for q := range got1 {
		for j := range got1[q] {
			if got1[q][j].TotalRelevantRows == 0 {
				t.Fatalf("cell (%d,%d) matched no rows", q, j)
			}
		}
	}

	// And a query studied alone, one injection at a time, agrees with its
	// cells of the shared study.
	alone := base
	alone.Queries = base.Queries[:1]
	alone.Parallelism = 4
	for j, at := range base.InjectAts {
		alone.InjectAts = []time.Duration{at}
		if !reflect.DeepEqual(RunCompletenessStudy(alone)[0][0], got1[0][j]) {
			t.Fatalf("query studied alone at %v disagrees with the study cell", at)
		}
	}
}

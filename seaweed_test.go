package seaweed

import (
	"testing"
	"time"
)

// Facade tests: the public API a downstream user sees, end to end.

func TestPublicAPIEndToEnd(t *testing.T) {
	trace := FarsiteTrace(120, 2*24*time.Hour, 99)
	cluster := New(WithTrace(trace), WithSeed(99), WithFlowsPerDay(40))
	cluster.RunUntil(24 * time.Hour)

	q, err := ParseQuery("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80")
	if err != nil {
		t.Fatal(err)
	}
	injector, ok := FirstLive(cluster)
	if !ok {
		t.Fatal("no live endsystem")
	}
	h := cluster.InjectQuery(injector, q)
	var streamed []ResultUpdate
	h.OnUpdate(func(u ResultUpdate) { streamed = append(streamed, u) })
	cluster.RunUntil(cluster.Sched.Now() + 5*time.Minute)

	if h.Predictor == nil {
		t.Fatal("no predictor through the public API")
	}
	if c := h.Predictor.CompletenessBy(0); c <= 0 || c > 1 {
		t.Fatalf("completeness %v out of range", c)
	}
	if _, ok := h.Predictor.DelayFor(0.5); !ok {
		t.Fatal("50% completeness should always be reachable on this trace")
	}
	if len(h.Results) == 0 || h.Results[len(h.Results)-1].Partial.Final(Sum) <= 0 {
		t.Fatal("no incremental result through the public API")
	}
	last := h.Results[len(h.Results)-1]
	// The streaming API delivers the same updates as the polled log.
	if len(streamed) == 0 || streamed[len(streamed)-1] != last {
		t.Fatal("OnUpdate stream disagrees with the update log")
	}
	sub := h.Updates()
	if sub.Pending() != len(streamed) {
		t.Fatalf("subscription sees %d pending, callback saw %d", sub.Pending(), len(streamed))
	}
}

func TestPublicAPIOptions(t *testing.T) {
	trace := FarsiteTrace(80, 24*time.Hour, 5)
	// WithScale truncates the deployment; WithSeed/WithLoss configure it.
	cluster := New(WithTrace(trace),
		WithSeed(5), WithLoss(0.01), WithScale(30), WithFlowsPerDay(20))
	if len(cluster.Nodes) != 30 {
		t.Fatalf("WithScale(30) built %d nodes", len(cluster.Nodes))
	}
	// WithConfig is the escape hatch to any ClusterConfig field.
	viaConfig := New(WithTrace(trace), WithSeed(5), WithConfig(func(cfg *ClusterConfig) {
		cfg.Net.LossRate = 0.01
		cfg.Workload.MeanFlowsPerDay = 20
	}), WithScale(30))
	if len(viaConfig.Nodes) != len(cluster.Nodes) {
		t.Fatal("WithConfig diverges from the dedicated options")
	}
}

func TestPublicAPICustomTables(t *testing.T) {
	// Downstream users can bring their own schema/data through the facade.
	schema := Schema{
		Name: "Sensors",
		Columns: []Column{
			{Name: "ts", Type: TInt, Indexed: true},
			{Name: "Room", Type: TString, Indexed: true},
			{Name: "Temp", Type: TInt, Indexed: true},
		},
	}
	tbl := NewTable(schema)
	for i := 0; i < 100; i++ {
		room := "lab"
		if i%3 == 0 {
			room = "office"
		}
		if err := tbl.Insert(int64(i), room, int64(15+i%10)); err != nil {
			t.Fatal(err)
		}
	}
	q := MustParseQuery("SELECT AVG(Temp) FROM Sensors WHERE Room='lab'")
	part, err := tbl.Execute(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg := part.Final(Avg); avg < 15 || avg > 25 {
		t.Fatalf("AVG(Temp) = %v", avg)
	}
}

func TestPublicAPIModels(t *testing.T) {
	p := PaperModelParams()
	sw := MaintenanceOverhead(DesignSeaweed, p)
	cent := MaintenanceOverhead(DesignCentralized, p)
	if sw <= 0 || cent <= sw {
		t.Fatalf("model facade wrong: seaweed=%v centralized=%v", sw, cent)
	}
}

func TestPublicAPICompleteness(t *testing.T) {
	trace := FarsiteTrace(200, 3*7*24*time.Hour, 7)
	w := DefaultAnemoneConfig(trace.Horizon, 7)
	w.MeanFlowsPerDay = 30
	res := RunCompletenessStudy(CompletenessStudyConfig{
		Trace:     trace,
		Workload:  w,
		Queries:   []*Query{MustParseQuery("SELECT COUNT(*) FROM Flow")},
		InjectAts: []time.Duration{2 * 7 * 24 * time.Hour},
		Lifetime:  24 * time.Hour,
	})[0][0]
	if res.TotalRelevantRows <= 0 {
		t.Fatal("no rows")
	}
	if res.Predicted.ExpectedTotal() <= 0 {
		t.Fatal("no prediction")
	}
}

package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/obs"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// clusterRun executes a full packet-level cluster — churn, maintenance,
// one injected query — and returns every observable output as bytes: the
// metrics registry JSON (sorted keys), per-class traffic totals, the
// executed-event count, and the query's result log. withTrace
// additionally attaches a JSONL tracer and returns the trace stream.
func clusterRun(t *testing.T, withTrace bool) (outputs, trace string) {
	t.Helper()
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(100, 36*time.Hour, 3))
	cfg := DefaultClusterConfig(tr, 3)
	cfg.Workload.MeanFlowsPerDay = 50
	o := obs.New()
	var traceBuf bytes.Buffer
	var sink *obs.JSONLSink
	if withTrace {
		sink = obs.NewJSONLSink(&traceBuf)
		o.SetTracer(obs.NewTracer(sink))
	}
	cfg.Obs = o
	c := NewCluster(cfg)

	c.RunUntil(12 * time.Hour)
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"))
	c.RunUntil(12*time.Hour + 15*time.Minute)
	c.RunUntil(24 * time.Hour)

	var out bytes.Buffer
	fmt.Fprintf(&out, "executed=%d live=%d injector=%d\n", c.Sched.Executed(), c.NumLive(), inj)
	st := c.Net.Stats()
	for _, cl := range []simnet.Class{simnet.ClassMaintenance, simnet.ClassQuery} {
		fmt.Fprintf(&out, "class=%d tx=%v rx=%v\n", cl, st.TotalTx(cl), st.TotalRx(cl))
	}
	fmt.Fprintf(&out, "query=%s updates=%d\n", h.QueryID, len(h.Results))
	for _, u := range h.Results {
		fmt.Fprintf(&out, "  at=%d count=%d sum=%v contributors=%d\n",
			u.At, u.Partial.Count, u.Partial.Sum, u.Contributors)
	}
	if h.Predictor != nil {
		fmt.Fprintf(&out, "predictor at=%d total=%v\n", h.PredictorAt, h.Predictor.ExpectedTotal())
	}
	if err := o.Registry().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return out.String(), traceBuf.String()
}

// diffLines reports the first line where two multi-line outputs differ.
func diffLines(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Fatalf("%s: outputs diverge at line %d:\n  a: %s\n  b: %s", label, i+1, al[i], bl[i])
		}
	}
	t.Fatalf("%s: outputs diverge in length: %d vs %d lines", label, len(al), len(bl))
}

// TestClusterByteDeterminism: the same seed run twice gives the same run
// to the byte — metrics registry JSON, traffic totals, executed-event
// count and the complete query result log. Any hidden input (map order,
// wall time, a shared rng) shows up here as a diff.
func TestClusterByteDeterminism(t *testing.T) {
	ref, _ := clusterRun(t, false)
	if len(ref) == 0 {
		t.Fatal("reference run produced no output")
	}
	got, _ := clusterRun(t, false)
	diffLines(t, "run 1 vs run 2", ref, got)
}

// TestTracerDoesNotPerturb: attaching a JSONL tracer records the run and
// changes nothing in it — the registry, traffic, event count and result
// log are byte-identical with and without the tracer.
func TestTracerDoesNotPerturb(t *testing.T) {
	plain, _ := clusterRun(t, false)
	traced, trace := clusterRun(t, true)
	if len(trace) == 0 {
		t.Fatal("traced run emitted no events")
	}
	diffLines(t, "untraced vs traced", plain, traced)
}

// TestNewClusterBuildWorkerIndependent: NewCluster builds the endsystems'
// data and summaries on every core, so the cluster must not depend on how
// many there are. At GOMAXPROCS 1 and 4 every node's encoded summary is
// the same, and so are the executed-event count and the metrics registry
// after an hour of simulation.
func TestNewClusterBuildWorkerIndependent(t *testing.T) {
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(48, 36*time.Hour, 5))
	build := func(procs int) (summaries [][]byte, run string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := DefaultClusterConfig(tr, 5)
		cfg.Workload.MeanFlowsPerDay = 1000
		cfg.Obs = obs.New()
		c := NewCluster(cfg)
		for _, n := range c.Nodes {
			summaries = append(summaries, n.Summary().Encode())
		}
		c.RunUntil(time.Hour)
		var out bytes.Buffer
		fmt.Fprintf(&out, "executed=%d\n", c.Sched.Executed())
		if err := cfg.Obs.Registry().WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return summaries, out.String()
	}
	sum1, run1 := build(1)
	sum4, run4 := build(4)
	for i := range sum1 {
		if !bytes.Equal(sum1[i], sum4[i]) {
			t.Fatalf("node %d: summary differs between GOMAXPROCS 1 and 4", i)
		}
	}
	diffLines(t, "GOMAXPROCS 1 vs 4", run1, run4)
}

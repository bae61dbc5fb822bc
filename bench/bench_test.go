package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{8, 50}, {19, 50}, {20, 50}, {22, 50}, {40, 75}, {50, 80}, {100, 90},
		{160, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := percentile(vals, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(vals, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestCensoredDelay(t *testing.T) {
	if d, c := censoredDelay(true, 700*time.Millisecond, 10*time.Minute); d != 700*time.Millisecond || c {
		t.Errorf("reached query: got %v censored=%v", d, c)
	}
	if d, c := censoredDelay(false, 0, 10*time.Minute); d != 10*time.Minute || !c {
		t.Errorf("query short of its target must be charged its deadline: got %v censored=%v", d, c)
	}
}

// TestSummarize checks what a number is taken over: host costs the
// median of the repetitions, per-query metrics the queries of all of
// them, window counts their mean; a replaced repetition lends nothing but
// must agree with its re-run.
func TestSummarize(t *testing.T) {
	rep := func(cpu, events float64, delays ...float64) *repResult {
		r := &repResult{Ops: len(delays), Host: hostCost{CPUS: cpu},
			Det: map[string]float64{"simnet.events": events}, Noisy: map[string]float64{}}
		r.Queries.ttfr, r.Queries.t99 = delays, delays
		r.Queries.metrics(r.Det)
		return r
	}
	disturbed := rep(9, 100, 1, 2, 3)
	disturbed.replaced = true
	reps := []*repResult{disturbed, rep(1, 100, 1, 2, 3), rep(3, 200, 4, 5, 6), rep(2, 300, 7, 8, 9)}
	s := summarize(&workload{name: "w"}, reps, 1)
	if s.FailedOps != 0 || s.Reps != 3 || s.Ops != 12 {
		t.Errorf("failed_ops %d, repetitions %d, ops %d: %v", s.FailedOps, s.Reps, s.Ops, s.Failures)
	}
	for k, want := range map[string]float64{"run_cpu_s": 2, "ttfr_ms_p50": 5, "simnet.events": 200} {
		if got := s.Metrics[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	reps[1].Det["simnet.events"] = 101
	if s := summarize(&workload{name: "w"}, reps, 1); s.FailedOps != 1 {
		t.Errorf("a re-run that disagrees with the repetition it replaces: failed_ops %d", s.FailedOps)
	}
}

// TestLayerAttribution feeds the profile decoder a canned profile, encoded
// here field by field, and checks each sample lands in the right bucket.
func TestLayerAttribution(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/pastry.(*Node).forward",  // 5
		"repro/internal/simnet.(*Wheel).advance", // 6
		"runtime.mallocgc",                       // 7
		"runtime.gcBgMarkWorker",                 // 8
		"main.main",                              // 9
		"repro/internal/obs/causal.Analyze",      // 10
		"repro/internal/runner.ForEach",          // 11
	}
	var prof []byte
	for fn := uint64(5); fn <= 11; fn++ { // function id == its name's string index
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, fn), 2, fn))
	}
	location := func(id uint64, fns ...uint64) {
		loc := pbUint(nil, 1, id)
		for _, fn := range fns {
			loc = pbBytes(loc, 4, pbUint(nil, 1, fn))
		}
		prof = pbBytes(prof, 4, loc)
	}
	location(1, 7)    // mallocgc
	location(2, 5, 6) // forward inlined into advance: callee first
	location(3, 8)    // the collector's goroutine
	location(4, 9)    // main
	location(5, 10)   // a sub-package of obs
	location(6, 11)   // an internal package that is not a layer
	sample := func(count, ns uint64, locs ...uint64) {
		var packed []byte
		for _, l := range locs {
			packed = binary.AppendUvarint(packed, l)
		}
		s := pbBytes(nil, 1, packed)
		s = pbBytes(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, count), ns))
		prof = pbBytes(prof, 2, s)
	}
	sample(3, 30e6, 1, 2, 4) // an allocation made by pastry is pastry's
	sample(1, 10e6, 3)
	sample(4, 40e6, 4)
	sample(1, 10e6, 1, 5, 4)
	sample(1, 10e6, 6, 4)
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"runtime.mallocgc", "repro/internal/pastry.(*Node).forward",
		"repro/internal/simnet.(*Wheel).advance", "main.main"}; !reflect.DeepEqual(samples[0].frames, want) {
		t.Errorf("frames of sample 0 = %q, want %q", samples[0].frames, want)
	}
	shares, count, totalNS := cpuShares(samples)
	if count != 10 || totalNS != 100e6 {
		t.Errorf("count %d total %d ns, want 10 and 1e8", count, totalNS)
	}
	want := map[string]float64{"pastry": 0.3, "runtime_gc": 0.1, "other": 0.5, "obs": 0.1}
	var sum float64
	for l, got := range shares {
		sum += got
		if math.Abs(got-want[l]) > 1e-12 {
			t.Errorf("%s.cpu_share = %v, want %v", l, got, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile must not parse")
	}
}

func pbUint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3|2), uint64(len(payload)))
	return append(b, payload...)
}

// TestQuickSuite runs every workload and every layer driver at -quick
// size: all metrics present and finite, one seed agreeing with itself
// exactly on everything deterministic, two seeds not.
func TestQuickSuite(t *testing.T) {
	b := &bench{seed: 1, quick: true, outDir: t.TempDir()}
	produced := map[string]bool{}
	for _, w := range workloads(true) {
		w := w
		first := w.run(1, repOptions{})
		again := w.run(1, repOptions{})
		other := w.run(2, repOptions{})
		for _, f := range append(first.Failures, other.Failures...) {
			t.Errorf("%s: %s", w.name, f)
		}
		if !reflect.DeepEqual(first.Det, again.Det) {
			t.Errorf("%s: one seed, two results:\n%v\n%v", w.name, first.Det, again.Det)
		}
		if reflect.DeepEqual(first.Det, other.Det) {
			t.Errorf("%s: seeds 1 and 2 gave identical results", w.name)
		}

		s := summarize(&w, []*repResult{first, again}, 0)
		b.traced(&w, s)
		if s.FailedOps > 0 {
			t.Errorf("%s: failed_ops %d: %v", w.name, s.FailedOps, s.Failures)
		}
		if s.Ops == 0 {
			t.Errorf("%s: no operations attempted", w.name)
		}
		for _, d := range endToEnd {
			v, ok := s.Metrics[d.Name]
			if !ok && !w.driven() {
				continue // the study reports the ones that apply to it
			}
			if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.name, d.Name, v, ok)
			}
		}
		var shares float64
		for k, v := range s.Metrics {
			produced[k] = true
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.name, k, v)
			}
		}
		for _, d := range cpuShareDefs() {
			shares += s.Metrics[d.Name]
		}
		// A quick window can end before the profiler's first tick.
		if s.Metrics["trace.profile_samples"] > 0 && math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", w.name, shares)
		}
		if _, err := os.Stat(b.outDir + "/trace-" + w.name + ".jsonl"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	drivers, failures := runDrivers(1, true, nil)
	for _, f := range failures {
		t.Error(f)
	}
	for k, v := range drivers {
		produced[k] = true
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("layer driver metric %s = %v", k, v)
		}
	}
	for _, d := range perLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s: no workload and no driver reports it", d.Name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	var all []workload
	for _, w := range workloads(false) {
		if w.driven() {
			all = append(all, w)
		}
	}
	if len(decl.Workloads) != len(all) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(all))
	}
	for i, w := range all {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, decl.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", decl.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or over the contract's limits", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
}

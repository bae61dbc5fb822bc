package anemone

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
)

func TestStreamerDeterministic(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 5)
	mk := func() *relq.Table {
		st := NewStreamer(cfg, 3)
		flow := relq.NewTable(FlowSchema())
		st.AppendTo(flow, 2*avail.Day)
		st.AppendTo(flow, 4*avail.Day)
		return flow
	}
	a, b := mk(), mk()
	if a.NumRows() != b.NumRows() {
		t.Fatal("streamer not deterministic")
	}
	at := a.ColumnValues("Bytes")
	bt := b.ColumnValues("Bytes")
	for i := range at {
		if at[i] != bt[i] {
			t.Fatal("row values differ between identical streams")
		}
	}
}

func TestStreamerVolumeMatchesGenerate(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 6)
	cfg.MeanFlowsPerDay = 200
	var streamRows, genRows int
	const sample = 12
	for i := 0; i < sample; i++ {
		st := NewStreamer(cfg, i)
		flow := relq.NewTable(FlowSchema())
		st.AppendTo(flow, avail.Week)
		streamRows += flow.NumRows()
		genRows += Generate(cfg, i).Flow.NumRows()
	}
	ratio := float64(streamRows) / float64(genRows)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("streamer volume ratio %.2f vs Generate, want ≈1", ratio)
	}
}

func TestStreamerTimestampsOrderedAndBounded(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 7)
	st := NewStreamer(cfg, 1)
	flow := relq.NewTable(FlowSchema())
	st.AppendTo(flow, 3*avail.Day)
	ts := flow.ColumnValues("ts")
	if len(ts) == 0 {
		t.Fatal("no rows streamed")
	}
	limit := int64((3 * avail.Day) / time.Second)
	for i, v := range ts {
		if v < 0 || v >= limit {
			t.Fatalf("row %d has ts %d outside [0, %d)", i, v, limit)
		}
	}
	// Appending a second window must only add rows in that window.
	before := flow.NumRows()
	st.AppendTo(flow, 4*avail.Day)
	for _, v := range flow.ColumnValues("ts")[before:] {
		if v < int64((3*avail.Day)/time.Second) || v >= int64((4*avail.Day)/time.Second) {
			t.Fatalf("second window produced ts %d outside its bounds", v)
		}
	}
}

func TestStreamerSkipTo(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 8)
	st := NewStreamer(cfg, 2)
	flow := relq.NewTable(FlowSchema())
	st.AppendTo(flow, avail.Day)
	st.SkipTo(3 * avail.Day) // offline for two days
	st.AppendTo(flow, 4*avail.Day)
	gapLo := int64(avail.Day / time.Second)
	gapHi := int64((3 * avail.Day) / time.Second)
	for _, v := range flow.ColumnValues("ts") {
		if v >= gapLo && v < gapHi {
			t.Fatalf("row with ts %d inside the skipped (offline) gap", v)
		}
	}
	// SkipTo backward is a no-op.
	st.SkipTo(0)
	before := flow.NumRows()
	st.AppendTo(flow, 4*avail.Day) // cursor already at 4d
	if flow.NumRows() != before {
		t.Fatal("backward SkipTo rewound the cursor")
	}
}

func TestStreamerDiurnalShape(t *testing.T) {
	cfg := DefaultConfig(avail.Week, 9)
	cfg.MeanFlowsPerDay = 2000
	st := NewStreamer(cfg, 4)
	flow := relq.NewTable(FlowSchema())
	st.AppendTo(flow, avail.Week)
	// Working hours (Tue 9-18) should far outweigh night (Tue 0-5).
	day := int64(avail.Day / time.Second)
	count := func(lo, hi int64) int {
		n := 0
		for _, v := range flow.ColumnValues("ts") {
			if v >= lo && v < hi {
				n++
			}
		}
		return n
	}
	tue := 1 * day
	work := count(tue+9*3600, tue+18*3600)
	night := count(tue, tue+5*3600)
	if work < 3*night {
		t.Fatalf("streamed diurnal skew too weak: work=%d night=%d", work, night)
	}
}

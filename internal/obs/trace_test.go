package obs

import (
	"strings"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	sink := NewJSONLSink(&sb)
	in := []Event{
		{T: 0, Kind: KindInject, Query: "deadbeef", EP: 7},
		{T: 250 * time.Millisecond, Kind: KindPredict, Query: "deadbeef", EP: 7, V: 123.5},
		{T: time.Hour, Kind: KindPartial, Query: "deadbeef", EP: 7, N: 42, V: 99},
	}
	for _, ev := range in {
		sink.Record(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"inject\"}\nnot-json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank-only input: evs=%v err=%v", evs, err)
	}
}

package simnet

import (
	"testing"
	"time"
)

func testNetwork(t *testing.T, n int, cfg NetworkConfig) (*Wheel, *Network) {
	t.Helper()
	s := NewWheel()
	topo := UniformTopology(4, 10*time.Millisecond, time.Millisecond)
	return s, NewNetwork(s, topo, n, cfg)
}

func TestSendDelivers(t *testing.T) {
	s, net := testNetwork(t, 4, DefaultNetworkConfig())
	var gotFrom Endpoint
	var gotPayload any
	net.Bind(1, HandlerFunc(func(from Endpoint, payload any) {
		gotFrom, gotPayload = from, payload
	}))
	net.Send(0, 1, 100, ClassQuery, "hello")
	s.Run()
	if gotFrom != 0 || gotPayload != "hello" {
		t.Fatalf("delivery: from=%v payload=%v", gotFrom, gotPayload)
	}
}

func TestSendDelay(t *testing.T) {
	s, net := testNetwork(t, 4, DefaultNetworkConfig())
	var at time.Duration
	net.Bind(1, HandlerFunc(func(Endpoint, any) { at = s.Now() }))
	net.Send(0, 1, 10, ClassPastry, nil)
	s.Run()
	// Either 2 LAN hops (2ms, same router) or 2 LAN hops + half the 10ms
	// RTT (7ms, different routers); must match the network's own Delay.
	if at != net.Delay(0, 1) {
		t.Fatalf("delivered at %v, want %v", at, net.Delay(0, 1))
	}
	if at != 2*time.Millisecond && at != 7*time.Millisecond {
		t.Fatalf("delay %v not one of the two possible values", at)
	}
}

func TestSendToSelf(t *testing.T) {
	s, net := testNetwork(t, 2, DefaultNetworkConfig())
	delivered := false
	net.Bind(0, HandlerFunc(func(Endpoint, any) { delivered = true }))
	net.Send(0, 0, 10, ClassQuery, nil)
	s.Run()
	if !delivered {
		t.Fatal("self-send not delivered")
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("self-send delay %v, want 2ms (two LAN hops)", s.Now())
	}
}

func TestAccounting(t *testing.T) {
	s, net := testNetwork(t, 4, DefaultNetworkConfig())
	net.Bind(1, HandlerFunc(func(Endpoint, any) {}))
	net.Send(0, 1, 100, ClassQuery, nil)
	net.Send(0, 1, 50, ClassMaintenance, nil)
	s.Run()
	st := net.Stats()
	if st.TotalTx(ClassQuery) != 100 || st.TotalTx(ClassMaintenance) != 50 {
		t.Fatalf("tx: query=%v maint=%v", st.TotalTx(ClassQuery), st.TotalTx(ClassMaintenance))
	}
	if st.TotalRx(ClassQuery) != 100 || st.TotalRx(ClassMaintenance) != 50 {
		t.Fatalf("rx: query=%v maint=%v", st.TotalRx(ClassQuery), st.TotalRx(ClassMaintenance))
	}
	if st.TotalTxAll() != 150 {
		t.Fatalf("total tx = %v", st.TotalTxAll())
	}
}

func TestLossChargesTxOnly(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.LossRate = 1.0 // drop everything
	s, net := testNetwork(t, 4, cfg)
	delivered := false
	net.Bind(1, HandlerFunc(func(Endpoint, any) { delivered = true }))
	net.Send(0, 1, 100, ClassQuery, nil)
	s.Run()
	if delivered {
		t.Fatal("lossRate=1 still delivered")
	}
	if net.Stats().TotalTx(ClassQuery) != 100 {
		t.Fatal("lost message must still charge tx")
	}
	if net.Stats().TotalRx(ClassQuery) != 0 {
		t.Fatal("lost message must not charge rx")
	}
}

func TestUnboundEndpointDropsSilently(t *testing.T) {
	s, net := testNetwork(t, 4, DefaultNetworkConfig())
	net.Send(0, 1, 100, ClassQuery, nil) // endpoint 1 has no handler
	s.Run()                              // must not panic
	if net.Stats().TotalRx(ClassQuery) != 100 {
		t.Fatal("rx accounting should happen even without handler")
	}
}

func TestPerEndpointBuckets(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Horizon = 10 * time.Hour
	s, net := testNetwork(t, 2, cfg)
	net.Bind(1, HandlerFunc(func(Endpoint, any) {}))
	// One send at t=0, one at t=2.5h.
	net.Send(0, 1, 100, ClassQuery, nil)
	s.At(150*time.Minute, func() { net.Send(0, 1, 200, ClassQuery, nil) })
	s.Run()
	samples := net.Stats().PerEndpointHourSamples(false, 0, 4*time.Hour)
	// 2 endpoints x 4 hour buckets = 8 samples; endpoint 0 averages 100 B
	// over hour 0 and 200 B over hour 2.
	if len(samples) != 8 {
		t.Fatalf("len(samples) = %d, want 8", len(samples))
	}
	want := []float64{100 / 3600.0, 0, 200 / 3600.0, 0, 0, 0, 0, 0}
	for i, v := range samples {
		if v != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := Summarize([]float64{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	if d.N != 10 {
		t.Fatalf("N = %d", d.N)
	}
	if d.ZeroFraction != 0.2 {
		t.Fatalf("ZeroFraction = %v", d.ZeroFraction)
	}
	if d.Mean != 3.6 {
		t.Fatalf("Mean = %v", d.Mean)
	}
	if d.Max != 8 {
		t.Fatalf("Max = %v", d.Max)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Fatal("empty summarize should be zero")
	}
}

func TestCDFMonotone(t *testing.T) {
	xs, fs := CDF([]float64{5, 3, 1, 4, 2}, 0)
	if len(xs) != len(fs) {
		t.Fatal("length mismatch")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || fs[i] < fs[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if fs[len(fs)-1] != 1 {
		t.Fatal("CDF must end at 1")
	}
}

func TestMeanExcludingZeros(t *testing.T) {
	if got := MeanExcludingZeros([]float64{0, 0, 10, 20}); got != 15 {
		t.Fatalf("got %v, want 15", got)
	}
	if got := MeanExcludingZeros([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero mean = %v, want 0", got)
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/relq"
	"repro/internal/simnet"
)

// TestZeroLossNoReissues: a network that loses nothing gets no subrange
// reissued, not even one merely slower than the responses before it (a
// first timeout adapted to those would reissue 22 here). The world has
// the shape of the benchmark's scan64: 64 endsystems on the Farsite trace
// of world seed 1, 160 queries one per 30 s after an hour's warm-up. The
// table size does not move a reissue, so the data is small.
func TestZeroLossNoReissues(t *testing.T) {
	const n = 64
	end := time.Hour + 90*time.Minute
	cfg := DefaultClusterConfig(avail.GenerateFarsite(avail.DefaultFarsiteConfig(n, end, 1)), 1)
	cfg.Workload.MeanFlowsPerDay = 50
	c := NewCluster(cfg)
	c.RunUntil(time.Hour)
	q := relq.MustParse("SELECT COUNT(*) FROM Flow WHERE LocalPort=443")
	o := c.Obs()
	reissues0 := o.Counter("dissem_reissues").Value()
	var handles []*QueryHandle
	for i := 0; i < 160; i++ {
		c.RunUntil(time.Hour + time.Duration(i)*30*time.Second)
		from := simnet.Endpoint(i * 7 % n)
		for !c.Nodes[from].Alive() {
			from = (from + 1) % n
		}
		handles = append(handles, c.InjectQuery(from, q))
	}
	c.RunUntil(end)
	if lost := o.Counter("net_lost").Value(); lost != 0 {
		t.Fatalf("the network lost %d messages: the world is meant to be lossless", lost)
	}
	for i, h := range handles {
		if h.Predictor == nil {
			t.Fatalf("query %d got no predictor", i)
		}
	}
	if got := o.Counter("dissem_reissues").Value() - reissues0; got != 0 {
		t.Errorf("%d subranges reissued at zero loss, want 0", got)
	}
}

package fault

import "time"

// Built-in chaos scenarios. Each comes in a full variant sized for the
// default ~20-minute fault window and a smoke variant compressed to a few
// virtual minutes for CI. Region numbers refer to simnet topology regions
// (one per core router; the default CorpNet-like topology has six). Every
// scenario injects its query while faults are active: QueryAt falls
// inside the headline fault window so recovery after the final heal is
// exercised, not just steady-state operation.

// BuiltinNames lists the built-in scenario names.
func BuiltinNames() []string {
	return []string{"partition", "burstloss", "flap", "mixed", "straggler"}
}

// Builtin returns a built-in scenario by name (smoke selects the
// compressed CI variant) and whether the name was known.
func Builtin(name string, smoke bool) (Scenario, bool) {
	switch name {
	case "partition":
		if smoke {
			return Scenario{
				Name:    "partition-smoke",
				QueryAt: 4*time.Minute + 30*time.Second,
				Injections: []Injection{
					{Type: Partition, At: 4 * time.Minute, Duration: 3 * time.Minute, Region: 1},
				},
			}, true
		}
		return Scenario{
			Name:    "partition",
			QueryAt: 11 * time.Minute,
			Injections: []Injection{
				{Type: Partition, At: 10 * time.Minute, Duration: 5 * time.Minute, Region: 1},
			},
		}, true

	case "burstloss":
		ge := Injection{Type: BurstLoss, GoodLoss: 0.05, BadLoss: 0.9,
			MeanGood: 20 * time.Second, MeanBad: 30 * time.Second}
		if smoke {
			ge.At, ge.Duration = 4*time.Minute, 2*time.Minute
			ge.MeanGood, ge.MeanBad = 10*time.Second, 20*time.Second
			return Scenario{Name: "burstloss-smoke", QueryAt: 4*time.Minute + 20*time.Second,
				Injections: []Injection{ge}}, true
		}
		ge.At, ge.Duration = 10*time.Minute, 4*time.Minute
		return Scenario{Name: "burstloss", QueryAt: 10*time.Minute + 30*time.Second,
			Injections: []Injection{ge}}, true

	case "flap":
		if smoke {
			return Scenario{
				Name:    "flap-smoke",
				QueryAt: 4 * time.Minute,
				Injections: []Injection{
					{Type: Crash, At: 3*time.Minute + 30*time.Second, Duration: time.Minute, Region: 2},
					{Type: Partition, At: 5 * time.Minute, Duration: time.Minute, Region: 1},
					{Type: Crash, At: 6*time.Minute + 30*time.Second, Duration: time.Minute, Region: 2},
				},
			}, true
		}
		return Scenario{
			Name:    "flap",
			QueryAt: 9 * time.Minute,
			Injections: []Injection{
				{Type: Crash, At: 8 * time.Minute, Duration: 2 * time.Minute, Region: 2},
				{Type: Partition, At: 10 * time.Minute, Duration: 90 * time.Second, Region: 1},
				{Type: Crash, At: 11*time.Minute + 30*time.Second, Duration: 2 * time.Minute, Region: 2},
			},
		}, true

	case "straggler":
		// Two regional slow cohorts (overlapping, different severities) with
		// a burst-loss channel and light duplication layered on top: the
		// tail-tolerance gauntlet. The aggregation tree's re-assertion
		// ladder should ride out the forwards the bursts drop; exactly-once
		// must hold while the duplication window doubles both organic and
		// retransmitted traffic.
		if smoke {
			return Scenario{
				Name:    "straggler-smoke",
				QueryAt: 4*time.Minute + 20*time.Second,
				Injections: []Injection{
					{Type: Straggler, At: 4 * time.Minute, Duration: 4 * time.Minute, Region: 2, SlowDelay: 1500 * time.Millisecond},
					{Type: Straggler, At: 4*time.Minute + 10*time.Second, Duration: 3 * time.Minute, Region: 4, SlowDelay: time.Second},
					{Type: BurstLoss, At: 4 * time.Minute, Duration: 2 * time.Minute,
						GoodLoss: 0.05, BadLoss: 0.85, MeanGood: 10 * time.Second, MeanBad: 20 * time.Second},
					{Type: Duplicate, At: 4*time.Minute + 10*time.Second, Duration: 2 * time.Minute, DupProb: 0.05},
				},
			}, true
		}
		return Scenario{
			Name:    "straggler",
			QueryAt: 11 * time.Minute,
			Injections: []Injection{
				{Type: Straggler, At: 10 * time.Minute, Duration: 8 * time.Minute, Region: 2, SlowDelay: 2 * time.Second},
				{Type: Straggler, At: 10*time.Minute + 30*time.Second, Duration: 7 * time.Minute, Region: 4, SlowDelay: 1200 * time.Millisecond},
				{Type: BurstLoss, At: 10*time.Minute + 30*time.Second, Duration: 4 * time.Minute,
					GoodLoss: 0.05, BadLoss: 0.9, MeanGood: 20 * time.Second, MeanBad: 30 * time.Second},
				{Type: Duplicate, At: 11 * time.Minute, Duration: 4 * time.Minute, DupProb: 0.05},
			},
		}, true

	case "mixed":
		if smoke {
			return Scenario{
				Name:    "mixed-smoke",
				QueryAt: 4*time.Minute + 30*time.Second,
				Injections: []Injection{
					{Type: Jitter, At: time.Minute, Duration: time.Minute, JitterMax: 100 * time.Millisecond},
					{Type: Spike, At: 75 * time.Second, Duration: 15 * time.Second, SpikeDelay: 300 * time.Millisecond},
					{Type: Duplicate, At: 2 * time.Minute, Duration: 2 * time.Minute, DupProb: 0.05},
					{Type: Crash, At: 2*time.Minute + 30*time.Second, Duration: time.Minute, Region: 2},
					{Type: Partition, At: 4 * time.Minute, Duration: 3 * time.Minute, Region: 1},
					{Type: BurstLoss, At: 4*time.Minute + 40*time.Second, Duration: 40 * time.Second,
						GoodLoss: 0.2, BadLoss: 0.95, MeanGood: 10 * time.Second, MeanBad: 20 * time.Second},
					{Type: Crash, At: 5 * time.Minute, Duration: time.Minute, Region: 3},
				},
			}, true
		}
		return Scenario{
			Name:    "mixed",
			QueryAt: 17 * time.Minute,
			Injections: []Injection{
				{Type: Jitter, At: 2 * time.Minute, Duration: 3 * time.Minute, JitterMax: 150 * time.Millisecond},
				{Type: Spike, At: 3 * time.Minute, Duration: 30 * time.Second, SpikeDelay: 400 * time.Millisecond},
				{Type: BurstLoss, At: 5 * time.Minute, Duration: 3 * time.Minute,
					GoodLoss: 0.05, BadLoss: 0.9, MeanGood: 20 * time.Second, MeanBad: 30 * time.Second},
				{Type: Crash, At: 6 * time.Minute, Duration: 3 * time.Minute, Region: 3},
				{Type: Duplicate, At: 9 * time.Minute, Duration: 3 * time.Minute, DupProb: 0.05},
				{Type: Partition, At: 16 * time.Minute, Duration: 5 * time.Minute, Region: 1},
				{Type: BurstLoss, At: 17*time.Minute + 10*time.Second, Duration: 50 * time.Second,
					GoodLoss: 0.2, BadLoss: 0.95, MeanGood: 10 * time.Second, MeanBad: 25 * time.Second},
				{Type: Crash, At: 18 * time.Minute, Duration: 90 * time.Second, Region: 2},
			},
		}, true
	}
	return Scenario{}, false
}

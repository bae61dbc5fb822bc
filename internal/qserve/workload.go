package qserve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/runner"
)

// ClassID is a workload traffic class.
type ClassID int

const (
	// Interactive queries are small, filtered aggregates a user is
	// waiting on; the service's delay budgets and priorities favor them.
	Interactive ClassID = iota
	// Batch queries are full-table scans feeding reports; large expected
	// row counts, generous result windows, low urgency.
	Batch
	// NumClasses is the number of traffic classes.
	NumClasses
)

// String renders the class name.
func (c ClassID) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("ClassID(%d)", int(c))
}

// Template is one query shape the workload draws from.
type Template struct {
	Name  string
	SQL   string
	Class ClassID
}

// InteractiveTemplates are the filtered aggregates the interactive class
// draws from (the paper's example monitoring queries).
var InteractiveTemplates = []Template{
	{Name: "http-bytes", SQL: "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80", Class: Interactive},
	{Name: "big-flows", SQL: "SELECT COUNT(*) FROM Flow WHERE Bytes > 20000", Class: Interactive},
	{Name: "smb-avg", SQL: "SELECT AVG(Bytes) FROM Flow WHERE App='SMB'", Class: Interactive},
}

// BatchTemplates are the full-table scans the batch class draws from.
var BatchTemplates = []Template{
	{Name: "all-flows", SQL: "SELECT COUNT(*) FROM Flow", Class: Batch},
	{Name: "total-bytes", SQL: "SELECT SUM(Bytes) FROM Flow", Class: Batch},
	{Name: "total-packets", SQL: "SELECT SUM(Packets) FROM Flow", Class: Batch},
}

// ClassLoad is one class's open-loop arrival process: Clients virtual
// clients jointly producing PerHour Poisson arrivals, each drawing
// uniformly from Templates.
type ClassLoad struct {
	Class     ClassID
	PerHour   float64
	Clients   int
	Templates []Template
}

// Workload is an open-loop arrival plan. Arrivals land in
// [Start, Start+Window); the simulation then runs Drain longer so queued
// work can finish. An optional spike multiplies every load's rate by
// SpikeFactor inside [SpikeAt, SpikeAt+SpikeFor).
type Workload struct {
	Name   string
	Start  time.Duration
	Window time.Duration
	Drain  time.Duration
	Loads  []ClassLoad

	SpikeAt     time.Duration
	SpikeFor    time.Duration
	SpikeFactor float64
}

// End is the simulation end instant: last possible arrival plus drain.
func (w Workload) End() time.Duration { return w.Start + w.Window + w.Drain }

// The named workloads are sized against the default service capacity
// (see pipeBudget): with budget 8, unit hold 20s, interactive cost 2
// and batch cost 6, the service completes ~360 interactive or ~40 batch
// queries per hour when serving one class alone.
const (
	workloadStart  = 10 * time.Hour // mid-morning: the farsite office population is up
	workloadWindow = 2 * time.Hour
	workloadDrain  = 3 * time.Hour
)

// Light is an underloaded mix: interactive at ~half the service's
// interactive-only capacity plus a trickle of batch scans.
func Light(scale float64) Workload {
	if scale <= 0 {
		scale = 1
	}
	return Workload{
		Name: "light", Start: workloadStart, Window: workloadWindow, Drain: workloadDrain,
		Loads: []ClassLoad{
			{Class: Interactive, PerHour: 180 * scale, Clients: 24, Templates: InteractiveTemplates},
			{Class: Batch, PerHour: 8 * scale, Clients: 4, Templates: BatchTemplates},
		},
	}
}

// Heavy is an overload mix: interactive alone fits (~0.7x capacity) but
// batch pushes the offered load to ~1.5x capacity, forcing the admission
// controller to shed and the scheduler to choose who waits.
func Heavy(scale float64) Workload {
	if scale <= 0 {
		scale = 1
	}
	return Workload{
		Name: "heavy", Start: workloadStart, Window: workloadWindow, Drain: workloadDrain,
		Loads: []ClassLoad{
			{Class: Interactive, PerHour: 252 * scale, Clients: 32, Templates: InteractiveTemplates},
			{Class: Batch, PerHour: 32 * scale, Clients: 8, Templates: BatchTemplates},
		},
	}
}

// Spike is the light mix with a 15-minute interactive burst at 4x the
// base rate half an hour in.
func Spike(scale float64) Workload {
	w := Light(scale)
	w.Name = "spike"
	w.SpikeAt = w.Start + 30*time.Minute
	w.SpikeFor = 15 * time.Minute
	w.SpikeFactor = 4
	return w
}

// Named returns the workload preset by name.
func Named(name string, scale float64) (Workload, bool) {
	switch name {
	case "light":
		return Light(scale), true
	case "heavy":
		return Heavy(scale), true
	case "spike":
		return Spike(scale), true
	}
	return Workload{}, false
}

// Arrival is one pregenerated query arrival. InjectorPick is a raw
// deterministic random value the service maps to a live endsystem at
// arrival time (the workload is generated before the cluster exists).
type Arrival struct {
	At           time.Duration
	Tmpl         Template
	Client       int
	Seq          int
	InjectorPick int64
}

// Arrivals expands the plan into a deterministic arrival sequence: every
// virtual client is an independent Poisson process on its own
// runner.SplitSeed stream, so the sequence is byte-identical for a given
// (workload, seed) no matter how the simulation is parallelized, and
// adding clients to one class does not disturb another's stream.
func (w Workload) Arrivals(seed int64) []Arrival {
	var out []Arrival
	for li, load := range w.Loads {
		if load.PerHour <= 0 || load.Clients <= 0 {
			continue
		}
		meanGap := time.Duration(float64(load.Clients) / load.PerHour * float64(time.Hour))
		for client := 0; client < load.Clients; client++ {
			rng := rand.New(rand.NewSource(runner.SplitSeed(seed, int64(li)<<20|int64(client))))
			at := w.Start
			for seq := 0; ; seq++ {
				gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
				if w.SpikeFactor > 1 && at >= w.SpikeAt && at < w.SpikeAt+w.SpikeFor {
					gap = time.Duration(float64(gap) / w.SpikeFactor)
				}
				at += gap
				if at >= w.Start+w.Window {
					break
				}
				out = append(out, Arrival{
					At:           at,
					Tmpl:         load.Templates[rng.Intn(len(load.Templates))],
					Client:       li<<20 | client,
					Seq:          seq,
					InjectorPick: int64(rng.Int63()),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Seq < b.Seq
	})
	return out
}

// percentile returns the q-quantile (0..1) of the samples by nearest-rank
// on a sorted copy; 0 when empty.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

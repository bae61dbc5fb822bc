package avail

import (
	"math/rand"
	"time"

	"repro/internal/ids"
)

// GnutellaConfig parameterizes the synthetic high-churn availability
// generator, calibrated to the Gnutella activity traces used by the paper
// for its high-churn experiment: 7,602 endsystems over 60 hours with an
// average departure rate of 9.46e-5 departures per online endsystem per
// second (mean session a bit under three hours).
type GnutellaConfig struct {
	NumEndsystems int
	Horizon       time.Duration
	Seed          int64
}

// The paper's high-churn trace: mean session 10,570 s (departure rate
// 9.46e-5 s^-1) and mean availability around 0.3, typical of peer-to-peer
// hosts.
const (
	// gnutellaMeanSession is the mean up-interval length. The departure
	// rate per online endsystem second is its reciprocal.
	gnutellaMeanSession = 10570 * time.Second
	// gnutellaMeanDowntime is the mean down-interval length; with the mean
	// session it sets the mean availability session/(session+downtime).
	gnutellaMeanDowntime = 24660 * time.Second
)

// DefaultGnutellaConfig returns the configuration for the given scale and
// seed.
func DefaultGnutellaConfig(numEndsystems int, horizon time.Duration, seed int64) GnutellaConfig {
	return GnutellaConfig{NumEndsystems: numEndsystems, Horizon: horizon, Seed: seed}
}

// GenerateGnutella builds a synthetic peer-to-peer availability trace with
// alternating exponentially distributed sessions and downtimes. Each
// endsystem starts in a random phase of its cycle so the population is
// stationary from t=0.
func GenerateGnutella(cfg GnutellaConfig) *Trace {
	tr := &Trace{Horizon: cfg.Horizon, Profiles: make([]*Profile, cfg.NumEndsystems)}
	pUp := float64(gnutellaMeanSession) / float64(gnutellaMeanSession+gnutellaMeanDowntime)
	rng := rand.New(new(ids.Source)) // re-seeded in place per endsystem
	for i := range tr.Profiles {
		rng.Seed(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0x6e47e11a)
		p := &Profile{}
		cursor := time.Duration(0)
		// Random initial phase: by the memorylessness of the exponential,
		// starting up with probability pUp and drawing fresh interval
		// lengths yields a stationary process.
		up := rng.Float64() < pUp
		for cursor < cfg.Horizon {
			if up {
				end := min(cursor+expDuration(rng, gnutellaMeanSession), cfg.Horizon)
				p.Up = append(p.Up, Interval{Start: cursor, End: end})
				cursor = end
			} else {
				cursor += expDuration(rng, gnutellaMeanDowntime)
			}
			up = !up
		}
		p.Normalize()
		tr.Profiles[i] = p
	}
	return tr
}

package avail

import (
	"math/rand"
	"time"
)

// FarsiteConfig parameterizes the synthetic enterprise-desktop availability
// generator. The generator is calibrated so the aggregate statistics match
// those of the Farsite availability study used throughout the Seaweed paper
// (51,663 endsystems on the Microsoft corporate network, July/August 1999):
// mean availability around 0.81, a strong diurnal and weekly pattern with a
// sharp morning up-event peak, and a mean departure rate near 4.06e-6 per
// online endsystem per second.
type FarsiteConfig struct {
	NumEndsystems int
	Horizon       time.Duration
	Seed          int64
}

// The calibrated shape of the population.
const (
	// alwaysOnFraction is the fraction of endsystems that behave as
	// servers or always-on desktops: available except for rare outages.
	alwaysOnFraction = 0.68
	// serverMTBF is the mean time between failures for always-on
	// endsystems, serverMeanOutage their mean outage duration.
	serverMTBF       = 30 * Day
	serverMeanOutage = 3 * time.Hour

	// Office endsystems follow a work-hours cycle. Each endsystem draws a
	// persistent personal arrival hour from
	// [officeArriveEarliest, officeArriveLatest] and a persistent workday
	// length around officeMeanWorkday.
	officeArriveEarliest = 7*time.Hour + 30*time.Minute
	officeArriveLatest   = 9*time.Hour + 30*time.Minute
	officeMeanWorkday    = 9*time.Hour + 30*time.Minute
	// officeAbsentProb is the per-weekday probability the endsystem stays
	// off all day (owner absent).
	officeAbsentProb = 0.05
	// officeOvernightProb is the probability a workday machine is left on
	// overnight.
	officeOvernightProb = 0.25
	// officeWeekendProb is the per-weekend-day probability the machine is
	// used (a shorter session).
	officeWeekendProb = 0.20
)

// DefaultFarsiteConfig returns the configuration for the given scale and
// seed. The paper's full trace has 51,663 endsystems over 4 weeks plus a
// ~2-week warmup; experiments often subsample.
func DefaultFarsiteConfig(numEndsystems int, horizon time.Duration, seed int64) FarsiteConfig {
	return FarsiteConfig{NumEndsystems: numEndsystems, Horizon: horizon, Seed: seed}
}

// GenerateFarsite builds a synthetic enterprise availability trace. The
// same config (including seed) always yields the same trace.
func GenerateFarsite(cfg FarsiteConfig) *Trace {
	tr := &Trace{Horizon: cfg.Horizon, Profiles: make([]*Profile, cfg.NumEndsystems)}
	for i := range tr.Profiles {
		// Each endsystem gets its own deterministic stream so the trace
		// for endsystem i does not depend on how many others exist.
		sub := rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e3779b97f4a7c ^ 0x5ea3eed))
		if sub.Float64() < alwaysOnFraction {
			tr.Profiles[i] = generateServer(cfg, sub)
		} else {
			tr.Profiles[i] = generateOffice(cfg, sub)
		}
	}
	return tr
}

// generateServer produces an always-on profile with rare Poisson outages.
func generateServer(cfg FarsiteConfig, rng *rand.Rand) *Profile {
	p := &Profile{}
	cursor := time.Duration(0)
	for cursor < cfg.Horizon {
		// Up until the next failure.
		up := expDuration(rng, serverMTBF)
		end := cursor + up
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		p.Up = append(p.Up, Interval{Start: cursor, End: end})
		cursor = end + expDuration(rng, serverMeanOutage)
	}
	p.Normalize()
	return p
}

// generateOffice produces a diurnal work-hours profile.
func generateOffice(cfg FarsiteConfig, rng *rand.Rand) *Profile {
	p := &Profile{}
	// Persistent personal habits.
	arriveSpan := officeArriveLatest - officeArriveEarliest
	personalArrive := officeArriveEarliest + time.Duration(rng.Int63n(int64(arriveSpan)+1))
	personalWorkday := officeMeanWorkday + time.Duration((rng.Float64()-0.5)*2*float64(time.Hour))

	days := int(cfg.Horizon/Day) + 2
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * Day
		weekend := IsWeekend(dayStart)
		if weekend {
			if rng.Float64() < officeWeekendProb {
				start := dayStart + 10*time.Hour + jitter(rng, time.Hour)
				end := start + 4*time.Hour + jitter(rng, 2*time.Hour)
				p.Up = append(p.Up, clip(Interval{start, end}, cfg.Horizon))
			}
			continue
		}
		if rng.Float64() < officeAbsentProb {
			continue
		}
		start := dayStart + personalArrive + jitter(rng, 20*time.Minute)
		end := start + personalWorkday + jitter(rng, 45*time.Minute)
		if rng.Float64() < officeOvernightProb {
			// Left on overnight: runs until switched off around the end of
			// the next day's session (adjacent intervals merge in
			// Normalize).
			end = dayStart + Day + personalArrive + personalWorkday + jitter(rng, 45*time.Minute)
		}
		p.Up = append(p.Up, clip(Interval{start, end}, cfg.Horizon))
	}
	p.Normalize()
	return p
}

func clip(iv Interval, horizon time.Duration) Interval {
	if iv.Start < 0 {
		iv.Start = 0
	}
	if iv.End > horizon {
		iv.End = horizon
	}
	if iv.End < iv.Start {
		iv.End = iv.Start
	}
	return iv
}

// jitter returns a symmetric random offset in (-scale, scale).
func jitter(rng *rand.Rand, scale time.Duration) time.Duration {
	return time.Duration((rng.Float64()*2 - 1) * float64(scale))
}

// expDuration draws an exponentially distributed duration with the given
// mean.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

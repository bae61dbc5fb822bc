// Package runner is the deterministic parallel experiment-execution
// pool: it fans independent simulation runs across cores while
// guaranteeing that the results are byte-identical to a serial execution,
// at any worker count.
//
// The determinism contract has three legs:
//
//  1. Seeding. Every stream of randomness is derived by SplitSeed from a
//     base seed and a stream index — never from a rand.Rand shared
//     between runs, whose consumption order would depend on scheduling.
//  2. Isolation. A run owns everything it mutates: its own simnet
//     scheduler, its own cluster, its own observability registry. The
//     pool never shares mutable state between in-flight runs (the
//     simnet scheduler additionally self-checks this; see
//     simnet.Wheel).
//  3. Indexed results. Run i's value lands in slot i of the output,
//     regardless of completion order.
//
// RNG-plumbing audit (the bug class this package exists to prevent):
// before the runner, per-node seeds in internal/core were derived as
// cfg.Seed ^ int64(i)<<1 and cfg.Seed ^ int64(ep) — xor/shift mixes whose
// streams collide across the runs of a sweep (seed 0's node 1 and seed
// 2's node 0 shared a seed, so two "independent" runs reused the same
// random stream). internal/experiments and internal/core/completeness.go
// themselves hold no shared rand.Rand state (each per-endsystem worker
// derives its own generator), but every cross-run derivation now goes
// through SplitSeed's full-avalanche mix so that distinct (base, stream)
// pairs give uncorrelated streams.
package runner

// SplitSeed derives an independent child seed from a base seed and a
// stream index, using the SplitMix64 finalizer (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014). Every
// bit of both inputs avalanches into the result, so neighbouring runs of
// a sweep (base, 0), (base, 1), … and neighbouring sweeps (base, i),
// (base+1, i) get uncorrelated seeds — unlike xor or shift mixes, which
// collide between (seed, stream) pairs that differ in compensating ways.
func SplitSeed(base, stream int64) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

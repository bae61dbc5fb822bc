//go:build race

package experiments

// raceEnabled reports that the race detector, which slows the full-scale
// studies several-fold, is compiled in.
const raceEnabled = true

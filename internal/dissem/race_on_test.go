//go:build race

package dissem

// raceEnabled reports that the race detector, which allocates on its own
// account, is compiled in.
const raceEnabled = true

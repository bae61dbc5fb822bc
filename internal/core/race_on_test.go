//go:build race

package core

// raceEnabled reports that the race detector, which keeps shadow memory
// and allocates on its own account, is compiled in.
const raceEnabled = true

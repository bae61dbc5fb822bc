//go:build !race

package dissem

const raceEnabled = false

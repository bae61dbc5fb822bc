//go:build !race

package relq

const raceEnabled = false

//go:build !race

package anemone

const raceEnabled = false

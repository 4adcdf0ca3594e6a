//go:build !race

package sim

// raceEnabled reports that the race detector is active; see race_on_test.go.
const raceEnabled = false

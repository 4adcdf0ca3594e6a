//go:build race

package sim

// raceEnabled reports that the race detector is active.
const raceEnabled = true

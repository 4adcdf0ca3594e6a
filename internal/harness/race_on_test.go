//go:build race

package harness

// raceEnabled reports that the race detector is active.
const raceEnabled = true

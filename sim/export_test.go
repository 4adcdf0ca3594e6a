package sim

// RaceEnabled exports raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

//go:build race

package sim

// raceEnabled reports that the tests were built with -race.
const raceEnabled = true

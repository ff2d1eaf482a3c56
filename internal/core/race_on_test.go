//go:build race

package core

// raceDetector reports that the tests run under the race detector,
// whose shadow memory multiplies every live heap byte: the tests that
// set the package's peak memory then run at reduced scale, and at full
// size only without it.
const raceDetector = true

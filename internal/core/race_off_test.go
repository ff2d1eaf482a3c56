//go:build !race

package core

// raceDetector: see race_on_test.go.
const raceDetector = false

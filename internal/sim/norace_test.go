//go:build !race

package sim_test

// raceDetector is false without the race detector; see race_test.go.
const raceDetector = false

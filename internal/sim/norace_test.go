//go:build !race

package sim

// RaceDetector is false without the race detector; see race_test.go.
const RaceDetector = false

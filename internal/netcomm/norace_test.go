//go:build !race

package netcomm_test

// raceEnabled reports whether the tests are built with the race detector.
const raceEnabled = false

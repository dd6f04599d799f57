//go:build !race

package harness

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

//go:build race

package harness

// raceEnabled reports a -race build (see norace_test.go).
const raceEnabled = true

//go:build !race

package l1

// raceEnabled gates allocation-budget tests; see race_on_test.go.
const raceEnabled = false

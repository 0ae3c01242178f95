//go:build race

package l1

// raceEnabled gates allocation-budget tests: the race runtime's
// instrumentation allocates, making testing.AllocsPerRun counts meaningless.
const raceEnabled = true

// Fixture for the allowaudit analyzer: well-formed directives are quiet,
// misspelled names and missing rationale are findings.
package a

import "time"

// goodAllow: known analyzer, justification present.
func goodAllow() time.Time {
	return time.Now() //lint:allow wallclock harness timing, not mining input
}

// goodAllowList: multiple analyzers and "all" are accepted.
func goodAllowList() time.Time {
	return time.Now() //lint:allow wallclock,floateq benchmark scaffolding
}

func goodAllowAll() time.Time {
	return time.Now() //lint:allow all generated fixture, exempt wholesale
}

// badUnknown misspells the analyzer name: the directive suppresses nothing.
func badUnknown() time.Time {
	return time.Now() //lint:allow wallclok fat-fingered name // want `unknown analyzer "wallclok"`
}

// badNoWhy gives no justification.
func badNoWhy() time.Time {
	return time.Now() //lint:allow wallclock // want `without a justification`
}

// badEmpty has no analyzer list at all.
func badEmpty() time.Time {
	return time.Now() //lint:allow // want `without an analyzer list`
}

// Package qb is the callee half of the package-qualified-call fixture: a
// two-parameter function whose result flows from its first parameter.
package qb

// First returns its first argument.
func First(x, y string) string { // wantfact `result#0 from param#0`
	return x
}

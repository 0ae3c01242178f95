package analyzers

import (
	"logscape/internal/analysis"
	"logscape/internal/analyzers/allowaudit"
	"logscape/internal/analyzers/bareconc"
	"logscape/internal/analyzers/cfgzero"
	"logscape/internal/analyzers/doclint"
	"logscape/internal/analyzers/floateq"
	"logscape/internal/analyzers/maporder"
	"logscape/internal/analyzers/taintorder"
	"logscape/internal/analyzers/wallclock"
)

// All returns the full analyzer suite in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		allowaudit.Analyzer,
		bareconc.Analyzer,
		cfgzero.Analyzer,
		doclint.Analyzer,
		floateq.Analyzer,
		maporder.Analyzer,
		taintorder.Analyzer,
		wallclock.Analyzer,
	}
}

// Names returns the analyzer names, for directive validation.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

func init() {
	// The directive audit validates analyzer names against the registry;
	// injecting the set here avoids an import cycle.
	allowaudit.Known = Names()
}

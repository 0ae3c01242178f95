// Command lintscape is the repository's invariant checker: a multichecker
// over the analyzers in internal/analyzers that mechanically enforces the
// determinism & concurrency contract (see DESIGN.md §"Static invariants").
// It loads the packages once and runs every analyzer once over the whole
// load (internal/analysis/runner).
//
// Usage:
//
//	lintscape [flags] [packages]
//
// With no packages it checks ./... . Flags:
//
//	-json           emit findings as a JSON array instead of text
//	-tests          also check _test.go files, external test packages included
//	-list           print the analyzers and their docs, then exit
//
// Exit status is 1 when any finding remains after //lint:allow filtering,
// 2 on operational failure (a package that does not type-check included),
// 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
	"logscape/internal/analysis/runner"
	"logscape/internal/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	tests := flag.Bool("tests", false, "also analyze _test.go files, external test packages included")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	// Load the packages, run every analyzer once over the whole load, print.
	findings, err := runner.Run(analyzers.All(), load.Options{Patterns: flag.Args(), Tests: *tests})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintscape:", err)
		os.Exit(2)
	}
	os.Exit(report(findings, *jsonOut))
}

// report prints the findings and returns the exit code.
func report(findings []analysis.Finding, jsonOut bool) int {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "lintscape:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// Command lintscape is the repository's invariant checker: a multichecker
// over the analyzers in internal/analyzers that mechanically enforces the
// determinism & concurrency contract (see DESIGN.md §"Static invariants").
//
// Usage:
//
//	lintscape [flags] [packages]
//
// With no packages it checks ./... . Flags:
//
//	-json           emit findings as a JSON array instead of text
//	-tests          also check in-package _test.go files
//	-workers N      analysis parallelism (0 = all cores, 1 = sequential)
//	-list           print the analyzers and their docs, then exit
//
// Exit status is 1 when any finding remains after //lint:allow filtering,
// 2 on operational failure, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"logscape/internal/analysis"
	"logscape/internal/analysis/runner"
	"logscape/internal/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	workers := flag.Int("workers", 0, "analysis parallelism: 0 = all cores, 1 = sequential")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	// Load packages, run the suite (per-package analyzers in parallel,
	// program-level dataflow analyzers over the whole load), print.
	res, err := runner.Run(analyzers.All(), runner.Options{
		Patterns: flag.Args(),
		Tests:    *tests,
		Workers:  *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintscape:", err)
		os.Exit(2)
	}
	os.Exit(report(res.Findings, *jsonOut))
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

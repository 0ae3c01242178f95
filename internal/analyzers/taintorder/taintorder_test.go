package taintorder_test

import (
	"testing"

	"logscape/internal/analysis/analysistest"
	"logscape/internal/analyzers/taintorder"
)

func TestTaintOrder(t *testing.T) {
	analysistest.Run(t, taintorder.Analyzer, "a", "g", "qb", "q")
}

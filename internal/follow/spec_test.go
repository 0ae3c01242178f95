package follow_test

import (
	"encoding/json"
	"os"
	"testing"

	"logscape/internal/follow"
)

type badSpec struct {
	name string
	spec follow.Spec
}

// badSpecs reads testdata/bad_specs.json — the one list of refused values
// this test, cmd/depmine's and internal/daemon's all drive — and returns each
// case laid over a valid base.
func badSpecs(t *testing.T, path string, base follow.Spec) []badSpec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string
		Set  json.RawMessage
	}
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	out := make([]badSpec, len(cases))
	for i, c := range cases {
		out[i] = badSpec{c.Name, base}
		if err := json.Unmarshal(c.Set, &out[i].spec); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestValidateRefusesBadSpecs: the base every case is laid over passes, each
// case fails — before anything is opened, Validate being pure — and stdin,
// which only the daemon refuses, passes.
func TestValidateRefusesBadSpecs(t *testing.T) {
	base := follow.Spec{Method: "l2", Source: "day.log", TimeoutSec: 1, BucketSec: 1, WindowBuckets: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("the base spec is refused: %v", err)
	}
	cases := badSpecs(t, "testdata/bad_specs.json", base)
	if len(cases) < 11 {
		t.Fatalf("%d cases in the shared list; want the issue's eleven", len(cases))
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: %+v passes Validate", c.name, c.spec)
		}
	}
	stdin := base
	stdin.Source = "-"
	if err := stdin.Validate(); err != nil {
		t.Errorf("stdin is refused by the shared check: %v", err)
	}
	for _, ok := range []float64{0.001, 0.0005, 7 * 24 * 3600} {
		edge := base
		edge.BucketSec = ok
		if err := edge.Validate(); err != nil {
			t.Errorf("bucket_sec %g is refused: %v", ok, err)
		}
	}
}

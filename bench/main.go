// Command bench is logscape's performance ledger: it drives the real
// binaries (depmine in follow mode, depmined) as child processes over
// inputs generated from a seed, checks their outputs, and prints the
// end-to-end metrics BENCHMARK.json names — or, with -trace 1, the per-layer
// budget of a traced in-process pass. README.md in this directory defines
// every workload and metric.
//
// Usage (from the repository root):
//
//	go run -C bench . -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	go run -C bench . -aa [-seed N] [-seconds S]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is 0 only when every
// check held.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"logscape/internal/obs"
)

// ledger is the part of BENCHMARK.json the harness reads: the single place
// that names every workload and metric, with its unit and bound.
type ledger struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// harness is one invocation's fixed context.
type harness struct {
	root     string // the repository checkout
	out      string // scratch and trace dumps, under the benchmark's directory
	depmine  string // built binaries
	depmined string
	ledger   ledger
	seed     int64
	seconds  float64
	trace    bool
	buildS   float64
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	failures          []string
	endToEnd          map[string]float64
	layers            map[string]float64
	raw               map[string][]float64
	passes            []*pass
	notes             []string
	timedS            float64
}

func newResult() *result {
	return &result{
		endToEnd: make(map[string]float64),
		layers:   make(map[string]float64),
		raw:      make(map[string][]float64),
	}
}

// check counts one failed operation when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) e2e(name string, v float64)   { r.endToEnd[name] = v }
func (r *result) layer(name string, v float64) { r.layers[name] = v }
func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 2005, "simulation seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "seconds of timed work per run (0 = BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 = also run the traced pass and report the per-layer metrics instead")
	aa := flag.Bool("aa", false, "A/A mode: run every workload twice and compare the two sets against the bounds")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, aa bool) error {
	h, err := newHarness(seed, seconds, trace)
	if err != nil {
		return err
	}
	if aa {
		return runAA(h)
	}
	res, err := h.runWorkload(workload)
	if err != nil {
		return err
	}
	h.report(workload, res)
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// newHarness locates the checkout, reads the ledger and builds the binaries
// under test. go run -C bench leaves the process in the benchmark's
// directory, so the checkout is its parent.
func newHarness(seed int64, seconds float64, trace bool) (*harness, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	h := &harness{root: filepath.Dir(wd), out: filepath.Join(wd, "out"), seed: seed, seconds: seconds, trace: trace}
	b, err := os.ReadFile(filepath.Join(h.root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("run from the benchmark's directory (go run -C bench .): %w", err)
	}
	if err := json.Unmarshal(b, &h.ledger); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if h.seconds <= 0 {
		h.seconds = float64(h.ledger.RunSeconds)
	}
	bin := filepath.Join(h.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	start := obs.SystemClock()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/depmine", "./cmd/depmined")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the binaries under test: %w\n%s", err, out)
	}
	h.buildS = sec(obs.SystemClock() - start)
	h.depmine, h.depmined = filepath.Join(bin, "depmine"), filepath.Join(bin, "depmined")
	return h, nil
}

// runWorkload dispatches one run by workload name.
func (h *harness) runWorkload(name string) (*result, error) {
	var run func() (*result, error)
	if name == liveName {
		run = func() (*result, error) { return runLive(h) }
	}
	for _, s := range replaySpecs {
		if s.name == name {
			run = func() (*result, error) { return runReplay(h, s) }
		}
	}
	if run == nil {
		var names []string
		for _, w := range h.ledger.Workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	res, err := run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.layer("harness.build_s", h.buildS)
	for _, m := range h.ledger.EndToEnd {
		_, ok := res.endToEnd[m.Name]
		res.check(ok, "end-to-end metric %s was not measured", m.Name)
	}
	return res, nil
}

// report prints the run for a reader, then the one JSON line the driver
// parses: the end-to-end metrics, or with trace on the per-layer ones.
func (h *harness) report(workload string, res *result) {
	fmt.Printf("workload %s  seed %d  %.0f s requested, %.2f s timed  build %.2f s\n",
		workload, h.seed, h.seconds, res.timedS, h.buildS)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for i, p := range res.passes {
		b, _ := json.Marshal(p) // plain numbers and strings
		fmt.Printf("pass %d %s\n", i+1, b)
	}
	for _, name := range sortedKeys(res.raw) {
		fmt.Printf("raw %s %v\n", name, res.raw[name])
	}
	fmt.Println("end-to-end:")
	for _, m := range h.ledger.EndToEnd {
		fmt.Printf("  %-36s %16.6f %s\n", m.Name, res.endToEnd[m.Name], m.Unit)
	}
	defs, vals := h.ledger.EndToEnd, res.endToEnd
	if h.trace {
		defs, vals = h.ledger.PerLayer, res.layers
		fmt.Println("per-layer:")
		for _, m := range defs {
			fmt.Printf("  %-36s %16.6f %s\n", m.Name, vals[m.Name], m.Unit)
		}
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("ops %d  ops_failed %d\n", res.attempted, res.failed)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, m := range defs {
		line.Metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings
	fmt.Println(string(b))
}

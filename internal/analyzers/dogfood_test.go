package analyzers_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"logscape/internal/analysis/dataflow"
	"logscape/internal/analysis/load"
	"logscape/internal/analysis/runner"
	"logscape/internal/analyzers"
)

// TestDogfood runs the full analyzer suite over this module itself,
// test files included, and requires a clean bill: every finding must be
// either fixed or carry a justified //lint:allow. This is the same code
// path as `lintscape -tests ./...` (the CLI and this test share
// internal/analysis/runner), so the module cannot merge code that its
// own linter rejects. It then asserts that no exported function under
// internal/ has lost its last production caller (see unreachableExports).
func TestDogfood(t *testing.T) {
	if testing.Short() {
		t.Skip("dogfood run type-checks the whole module; skipped in -short")
	}
	findings, err := runner.Run(analyzers.All(), load.Options{
		Dir:      "../..", // module root, relative to this package
		Patterns: []string{"./..."},
		Tests:    true,
	})
	if err != nil {
		t.Fatalf("runner.Run: %v", err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
	if t.Failed() {
		t.Log("fix the finding or justify it with //lint:allow <analyzer> <why>")
	}

	dead, stale := unreachableExports(t)
	for _, id := range dead {
		t.Errorf("%s is exported but nothing reachable from cmd/, examples/ or the root facade refers to it: "+
			"delete it with its tests, or add it to keptExports with a reason", id)
	}
	for _, id := range stale {
		t.Errorf("keptExports lists %s, which is reachable or gone: drop the entry", id)
	}
}

// keptExports are the exported functions under internal/ that production
// code does not reach and that stay anyway, each with its reason. Keys are
// dataflow.FuncID names.
var keptExports = map[string]string{
	// Reference implementations the equivalence suites compare production
	// against.
	"(*logscape/internal/stream.L1Stream).Batch":                "reference: the batch L1 mine stream ≡ batch, chaos and fuzz compare a snapshot with",
	"(*logscape/internal/stream.L2Stream).Batch":                "reference: the batch L2 mine, as above",
	"(*logscape/internal/stream.L3Stream).Batch":                "reference: the batch L3 mine, as above",
	"(*logscape/internal/stream.Ingester).WindowStore":          "reference: the window as a batch store, the input to Batch",
	"(*logscape/internal/stream.Ingester).Add":                  "reference: per-entry ingest, which AddBatch and the Feeder are pinned against",
	"(*logscape/internal/sessions.Tracker).Sessions":            "reference: the tracker's answer to what sessions.Build returns over the surviving entries",
	"logscape/internal/core/l2.CountBigramsParallel":            "determinism_test.go pins it against CountBigrams at five worker counts",
	"(*logscape/internal/baseline.Result).DirectedDependencies": "determinism_test.go compares it at Workers 1 and 8",

	// Generators and probes other packages' tests are built on.
	"logscape/internal/pointproc.Homogeneous":              "generator: Poisson arrivals for the L1 and stats calibration suites",
	"logscape/internal/pointproc.NonHomogeneous":           "generator: rate-varying arrivals for the L1 extension suite",
	"logscape/internal/pointproc.MergeSorted":              "generator: merged activity for the L1 extension and baseline suites",
	"logscape/internal/obs.New":                            "the system-clock registry seven packages' tests collect into",
	"(*logscape/internal/logmodel.Store).Sorted":           "invariant probe: the logmodel, hospital, eval and facade suites assert sortedness through it",
	"logscape/internal/textproc.HasWordBounded":            "probe: the simulator's message suite checks citations are word-bounded with it",
	"(logscape/internal/stats.CI).Contains":                "interval predicate the eval and stats suites assert coverage through",
	"(logscape/internal/stats.CI).StrictlyPositive":        "interval predicate the eval suite reads a slope's sign through",
	"(logscape/internal/stats.CI).StrictlyNegative":        "interval predicate, as above",
	"(logscape/internal/core.Confusion).FalsePositiveRate": "the paper's L1 error rate; the facade suite asserts it",
	"(*logscape/internal/daemon.Daemon).Wait":              "test synchronisation: block until a tenant's engine has exited",
	"(*logscape/internal/daemon.Daemon).WaitIdle":          "test synchronisation: sequence a kill after the tail has drained, without sleeping",

	// Named by an analyzer's diagnostic as the fix.
	"logscape/internal/stats.ApproxEqual": "the comparison floateq's diagnostic prescribes",

	// The benchmark's pinned surface (bench/README.md): bench/ is a module of
	// its own, so a load of this one does not see its callers.
	"(logscape/internal/core.Confusion).F1": "bench pinned surface: model_f1",
}

// keptPackages are exempt as a whole: nothing in them is production code.
var keptPackages = map[string]string{
	"internal/analysis/analysistest": "the analyzers' fixture harness, imported by tests only",
	"internal/chaos":                 "the fault-injection harness, imported by tests only",
}

// stdlibDispatched are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, io.Reader, sort.Interface,
// json.Marshaler, http.Handler, ...): a load of this module never sees
// those call sites.
var stdlibDispatched = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// unreachableExports walks the function index analysis/dataflow builds over
// the module's non-test code, from every function in cmd/, examples/ and
// the root facade plus every package-level initializer, along each
// reference a body makes to a function (call, method value or function
// value). A call through an interface reaches every method of that name.
// It returns the exported functions and methods under internal/ the walk
// never reached and keptExports does not list, and the keptExports entries
// that are no longer needed.
func unreachableExports(t *testing.T) (dead, stale []string) {
	res, err := load.Load(load.Options{Dir: "../.."})
	if err != nil {
		t.Fatalf("load.Load: %v", err)
	}
	prog := dataflow.BuildProgram(res.Fset, res.Units)

	byMethodName := make(map[string][]string)
	for id, fn := range prog.Funcs {
		if fn.Decl.Recv != nil {
			byMethodName[fn.Decl.Name.Name] = append(byMethodName[fn.Decl.Name.Name], id)
		}
	}

	reached := make(map[string]bool)
	var work []string
	reach := func(id string) {
		if _, ok := prog.Funcs[id]; ok && !reached[id] {
			reached[id] = true
			work = append(work, id)
		}
	}
	// refs reaches every function n's identifiers resolve to.
	refs := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, m := range byMethodName[fn.Name()] {
					reach(m)
				}
				return true
			}
			reach(dataflow.FuncID(fn))
			return true
		})
	}

	for _, u := range res.Units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					refs(u.Info, gd)
				}
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			fn := prog.Funcs[work[len(work)-1]]
			work = work[:len(work)-1]
			refs(fn.Unit.Info, fn.Decl.Body)
		}
	}
	for id, fn := range prog.Funcs {
		dir := fn.Unit.RelDir
		root := dir == "." || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") || keptPackages[dir] != ""
		if root || fn.Decl.Name.Name == "init" || (fn.Decl.Recv != nil && stdlibDispatched[fn.Decl.Name.Name]) {
			reach(id)
		}
	}
	drain()
	// What a kept export calls stays alive with it; an entry production
	// already reaches, or that names nothing, is stale.
	for id := range keptExports {
		if _, ok := prog.Funcs[id]; !ok || reached[id] {
			stale = append(stale, id)
		}
		reach(id)
	}
	drain()

	for id, fn := range prog.Funcs {
		if strings.HasPrefix(fn.Unit.RelDir, "internal/") && keptPackages[fn.Unit.RelDir] == "" && exported(fn) && !reached[id] {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// exported reports whether fn is visible outside its package: an exported
// function, or an exported method on an exported type.
func exported(fn *dataflow.Func) bool {
	if !fn.Obj.Exported() {
		return false
	}
	recv := fn.Sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

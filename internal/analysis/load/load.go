package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"

	"logscape/internal/analysis"
	"logscape/internal/parallel"
)

// Options configures a Load.
type Options struct {
	// Dir is the working directory for the go command (default: cwd).
	Dir string
	// Patterns are the package patterns to load (default: ./...).
	Patterns []string
	// Tests includes in-package _test.go files in each target package and
	// loads each external _test package as a unit of its own.
	Tests bool
}

// Result is the outcome of a Load.
type Result struct {
	// Units are the target packages in `go list` order.
	Units []*analysis.Unit
	// ModuleDir is the root of the main module.
	ModuleDir string
	Fset      *token.FileSet
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	DepOnly      bool
	Module       *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// Load lists, parses and type-checks the packages matching the patterns,
// at GOMAXPROCS parallelism. A package that fails to read, parse or
// type-check fails the whole load: analyzers only ever see well-typed code.
func Load(opts Options) (*Result, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = opts.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	res := &Result{Fset: token.NewFileSet()}
	resolver := newResolver(opts.Dir)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			resolver.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
			if res.ModuleDir == "" && p.Module != nil && p.Module.Main {
				res.ModuleDir = p.Module.Dir
			}
			// External test packages (package foo_test) type-check as their
			// own compilation unit importing the package under test, so they
			// become synthetic extra targets.
			if opts.Tests && len(p.XTestGoFiles) > 0 {
				xt := p
				xt.ImportPath = p.ImportPath + " [external test]"
				xt.GoFiles = p.XTestGoFiles
				xt.TestGoFiles = nil
				xt.Export = ""
				targets = append(targets, xt)
			}
		}
	}

	errs := make([]error, len(targets))
	res.Units = parallel.Map(parallel.Workers(0), len(targets), func(i int) *analysis.Unit {
		u, err := loadOne(res, targets[i], resolver, opts.Tests)
		errs[i] = err
		return u
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// loadOne parses and type-checks one target package. The error joins every
// read, parse and type error, each prefixed with the import path.
func loadOne(res *Result, lp listPackage, r *resolver, tests bool) (*analysis.Unit, error) {
	u := &analysis.Unit{
		RelDir:  relDir(res.ModuleDir, lp.Dir),
		Sources: make(map[string][]byte),
	}
	var errs []error
	fail := func(err error) { errs = append(errs, fmt.Errorf("%s: %w", lp.ImportPath, err)) }
	names := append([]string{}, lp.GoFiles...)
	if tests {
		names = append(names, lp.TestGoFiles...)
	}
	for _, name := range names {
		full := filepath.Join(lp.Dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			fail(err)
			continue
		}
		u.Sources[full] = src
		f, err := parser.ParseFile(res.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fail(err)
			continue
		}
		u.Files = append(u.Files, f)
	}

	u.Info = NewInfo()
	conf := types.Config{
		// Each package gets its own importer instance: the gc importer's
		// internal package cache is not safe for the concurrent
		// type-checking the worker pool does.
		Importer: importer.ForCompiler(res.Fset, "gc", r.lookup),
		Error:    fail,
	}
	tpkg, err := conf.Check(lp.ImportPath, res.Fset, u.Files, u.Info)
	if err != nil && len(errs) == 0 {
		fail(err)
	}
	u.Pkg = tpkg
	return u, errors.Join(errs...)
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func relDir(moduleDir, dir string) string {
	if moduleDir == "" {
		return "."
	}
	rel, err := filepath.Rel(moduleDir, dir)
	if err != nil {
		return "."
	}
	return filepath.ToSlash(rel)
}

// resolver maps import paths to compiler export data files, falling back
// to an on-demand `go list -export` for paths outside the initial -deps
// closure (e.g. test-only imports when Options.Tests is set).
type resolver struct {
	dir     string
	mu      sync.Mutex
	exports map[string]string
}

func newResolver(dir string) *resolver {
	return &resolver{dir: dir, exports: make(map[string]string)}
}

// lookup is the go/importer lookup function: it returns a reader of the
// export data for an import path.
func (r *resolver) lookup(path string) (io.ReadCloser, error) {
	r.mu.Lock()
	file, ok := r.exports[path]
	if !ok {
		out, err := r.listExport(path)
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		file = out
		r.exports[path] = file
	}
	r.mu.Unlock()
	if file == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// listExport asks the go command for the export data file of one package.
// Callers hold r.mu.
func (r *resolver) listExport(path string) (string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "--", path)
	cmd.Dir = r.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// StdResolver returns a resolver suitable for type-checking synthetic
// packages (e.g. analysistest fixtures) whose imports are resolved
// entirely on demand.
func StdResolver(dir string) func(path string) (io.ReadCloser, error) {
	return newResolver(dir).lookup
}

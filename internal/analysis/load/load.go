package load

import (
	"bytes"
	"encoding/json"
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

	"logscape/internal/parallel"
)

// Package is one parsed and type-checked target package.
type Package struct {
	// ImportPath is the canonical import path.
	ImportPath string
	// Dir is the absolute package directory.
	Dir string
	// RelDir is Dir relative to the module root with forward slashes
	// ("." for the root package).
	RelDir string
	// Fset is the shared file set of the load.
	Fset *token.FileSet
	// Files are the parsed source files (GoFiles, plus in-package test
	// files when Options.Tests is set).
	Files []*ast.File
	// Types and Info are the type-checked package and its type
	// information.
	Types *types.Package
	Info  *types.Info
	// Sources maps each file name (as recorded in Fset positions) to its
	// raw content, for directive scanning.
	Sources map[string][]byte
	// Errors holds type-checking errors, if any. Analyzers still run on
	// packages with errors, but the driver reports them.
	Errors []error
}

// Options configures a Load.
type Options struct {
	// Dir is the working directory for the go command (default: cwd).
	Dir string
	// Patterns are the package patterns to load (default: ./...).
	Patterns []string
	// Tests includes in-package _test.go files in each target package
	// (external _test packages are not loaded).
	Tests bool
	// Workers bounds the type-checking parallelism as in
	// internal/parallel: 0 means GOMAXPROCS, 1 forces sequential.
	Workers int
}

// Result is the outcome of a Load.
type Result struct {
	// Packages are the target packages in `go list` order.
	Packages []*Package
	// ModuleDir and ModulePath describe the main module.
	ModuleDir  string
	ModulePath string
	Fset       *token.FileSet
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

// Load lists, parses and type-checks the packages matching the patterns.
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
				res.ModulePath = p.Module.Path
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

	pkgs := parallel.Map(parallel.Workers(opts.Workers), len(targets), func(i int) *Package {
		return loadOne(res, targets[i], resolver, opts.Tests)
	})
	res.Packages = pkgs
	return res, nil
}

// loadOne parses and type-checks one target package.
func loadOne(res *Result, lp listPackage, r *resolver, tests bool) *Package {
	pkg := &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		RelDir:     relDir(res.ModuleDir, lp.Dir),
		Fset:       res.Fset,
		Sources:    make(map[string][]byte),
	}
	names := append([]string{}, lp.GoFiles...)
	if tests {
		names = append(names, lp.TestGoFiles...)
	}
	for _, name := range names {
		full := filepath.Join(lp.Dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Sources[full] = src
		f, err := parser.ParseFile(res.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = NewInfo()
	conf := types.Config{
		// Each package gets its own importer instance: the gc importer's
		// internal package cache is not safe for the concurrent
		// type-checking the worker pool does.
		Importer: importer.ForCompiler(res.Fset, "gc", r.lookup),
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, res.Fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.Errors) == 0 {
		pkg.Errors = append(pkg.Errors, err)
	}
	pkg.Types = tpkg
	return pkg
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

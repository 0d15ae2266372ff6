// Package load turns Go source into the type-checked analysis.Target the
// yieldvet analyzers run over, using only the standard library's parser
// and type checker.
//
// Three loading paths share these helpers:
//
//   - the analysistest harness loads fixture directories, resolving their
//     (stdlib-only) imports by type-checking GOROOT sources via the
//     "source" importer — hermetic, no build cache or network needed;
//   - yieldvet's standalone mode loads module packages listed by
//     `go list -deps -export -json`, resolving imports through the
//     compiler's export data — exact and fast;
//   - yieldvet's `go vet -vettool` mode does the same from the vet.cfg
//     the go command hands it.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/cnfet/yieldlab/internal/analysis"
)

// Files parses and type-checks one package from explicit file names.
// importPath becomes the package path; imp resolves imports; goVersion
// ("go1.24", or "" for the checker default) bounds the language version.
func Files(fset *token.FileSet, importPath string, filenames []string, imp types.Importer, goVersion string) (*analysis.Target, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return check(fset, importPath, files, imp, goVersion)
}

// A FixtureLoader loads testdata/src-style fixture trees with
// cross-package imports: the package with import path p lives in
// <root>/p, imports naming a sibling fixture directory resolve to that
// fixture (type-checked recursively), and everything else resolves from
// GOROOT source. It exists so analyzer fixtures can exercise the
// cross-package facts layer — a dependency package exporting a fact, a
// consumer package being checked against it — without leaving the
// hermetic, stdlib-only fixture world.
type FixtureLoader struct {
	root    string
	fset    *token.FileSet
	stdlib  types.Importer
	cache   map[string]*fixtureEntry
	loading map[string]bool
	order   []string
}

type fixtureEntry struct {
	target *analysis.Target
	err    error
}

// NewFixtureLoader returns a loader rooted at a testdata/src-style
// directory. The loader is not safe for concurrent use; drivers wanting
// parallelism load sequentially and parallelize fact computation instead.
func NewFixtureLoader(root string) *FixtureLoader {
	fset := token.NewFileSet()
	return &FixtureLoader{
		root:    root,
		fset:    fset,
		stdlib:  SourceImporter(fset),
		cache:   make(map[string]*fixtureEntry),
		loading: make(map[string]bool),
	}
}

// Load parses and type-checks the fixture package at <root>/<path>,
// loading fixture dependencies first. Results are memoized.
func (l *FixtureLoader) Load(path string) (*analysis.Target, error) {
	if e, ok := l.cache[path]; ok {
		return e.target, e.err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through fixture %q", path)
	}
	l.loading[path] = true
	target, err := l.load(path)
	delete(l.loading, path)
	l.cache[path] = &fixtureEntry{target: target, err: err}
	if err == nil {
		l.order = append(l.order, path)
	}
	return target, err
}

// Loaded returns the fixture import paths loaded so far, dependencies
// before dependents — the order fact computation must follow.
func (l *FixtureLoader) Loaded() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

func (l *FixtureLoader) load(path string) (*analysis.Target, error) {
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		filenames = append(filenames, filepath.Join(dir, e.Name()))
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		fixtureDir := filepath.Join(l.root, filepath.FromSlash(importPath))
		if st, err := os.Stat(fixtureDir); err == nil && st.IsDir() {
			t, err := l.Load(importPath)
			if err != nil {
				return nil, err
			}
			return t.Pkg, nil
		}
		return l.stdlib.Import(importPath)
	})
	return Files(l.fset, path, filenames, imp, "")
}

// check runs the type checker over parsed files.
func check(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer, goVersion string) (*analysis.Target, error) {
	info := analysis.NewInfo()
	conf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: goVersion,
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Target{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// SourceImporter resolves imports by type-checking package sources under
// GOROOT. It is hermetic (no build cache) but only reaches the standard
// library; module-local imports need export data.
func SourceImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// ExportImporter resolves imports through compiler export data files:
// importMap translates source-level import strings to package paths
// (identity for non-vendored builds) and packageFile locates each package
// path's export data. Both maps follow the go command's vet.cfg schema and
// the output of `go list -export`.
func ExportImporter(fset *token.FileSet, importMap, packageFile map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		if path, ok := importMap[importPath]; ok {
			importPath = path
		}
		return gc.Import(importPath)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/load"
)

// listedPackage is the slice of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *struct {
		Path      string
		GoVersion string
	}
}

// goList runs `go list` in dir ("" for the working directory) with the
// given flags and patterns and decodes the JSON stream.
func goList(dir string, flags []string, patterns []string) ([]*listedPackage, error) {
	args := append(append([]string{"list"}, flags...), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loadModulePackages resolves patterns, relative to dir, to the module's packages plus an
// export-data index covering every dependency, ready for type-checking
// targets from source. moduleDeps is every non-standard package the
// targets (transitively) import, targets included — the fact-computation
// frontier.
func loadModulePackages(dir string, patterns []string) (targets, moduleDeps []*listedPackage, packageFile map[string]string, goVersion string, err error) {
	// One -deps -export walk yields both the target set (non-standard
	// packages matching the patterns are flagged DepOnly=false, but the
	// cheap and robust selector is a second plain list) and export data
	// for everything the targets import.
	all, err := goList(dir, []string{"-deps", "-export", "-json"}, patterns)
	if err != nil {
		return nil, nil, nil, "", err
	}
	packageFile = make(map[string]string, len(all))
	for _, p := range all {
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if !p.Standard {
			moduleDeps = append(moduleDeps, p)
		}
	}

	named, err := goList(dir, []string{"-json"}, patterns)
	if err != nil {
		return nil, nil, nil, "", err
	}
	want := make(map[string]bool, len(named))
	for _, p := range named {
		want[p.ImportPath] = true
	}
	for _, p := range all {
		if !want[p.ImportPath] || p.Standard {
			continue
		}
		targets = append(targets, p)
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
	}
	return targets, moduleDeps, packageFile, goVersion, nil
}

// packageLoader memoizes source loads so the fact pre-pass and the
// checking pass type-check each package once. Safe for the concurrent
// fact scheduler.
type packageLoader struct {
	packageFile map[string]string
	goVersion   string

	mu     sync.Mutex
	loaded map[string]*analysis.Target
}

func (l *packageLoader) load(p *listedPackage) (*analysis.Target, error) {
	l.mu.Lock()
	if t, ok := l.loaded[p.ImportPath]; ok {
		l.mu.Unlock()
		return t, nil
	}
	l.mu.Unlock()

	filenames := make([]string, len(p.GoFiles))
	for i, name := range p.GoFiles {
		filenames[i] = filepath.Join(p.Dir, name)
	}
	fset := token.NewFileSet()
	imp := load.ExportImporter(fset, nil, l.packageFile)
	target, err := load.Files(fset, p.ImportPath, filenames, imp, l.goVersion)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.loaded[p.ImportPath] = target
	l.mu.Unlock()
	return target, nil
}

// runStandalone checks every module package matching the patterns and
// returns the process exit code.
func runStandalone(patterns []string) int {
	targets, moduleDeps, packageFile, goVersion, err := loadModulePackages("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet: %v\n", err)
		return 2
	}
	loader := &packageLoader{
		packageFile: packageFile,
		goVersion:   goVersion,
		loaded:      make(map[string]*analysis.Target),
	}

	// Fact pre-pass over the whole module dependency frontier, in import
	// order, bounded concurrency. Deps outside the job set (the standard
	// library) are scheduling no-ops.
	fs := analysis.NewFactSet()
	jobs := make([]analysis.FactJob, 0, len(moduleDeps))
	for _, p := range moduleDeps {
		jobs = append(jobs, analysis.FactJob{
			Path: p.ImportPath,
			Deps: p.Imports,
			Load: func() (*analysis.Target, error) { return loader.load(p) },
		})
	}
	if err := analysis.ComputeFactsGraph(jobs, suite(), fs, runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet: computing facts: %v\n", err)
		return 2
	}

	exit := 0
	for _, p := range targets {
		target, err := loader.load(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet: %s: %v\n", p.ImportPath, err)
			return 2
		}
		diags, err := analysis.CheckFacts(target, suite(), fs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet: %s: %v\n", p.ImportPath, err)
			return 2
		}
		if printDiagnostics(target, diags) {
			exit = 1
		}
	}
	return exit
}

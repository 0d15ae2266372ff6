package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/load"
	"github.com/cnfet/yieldlab/internal/analysis/noalloc"
)

// Escape mode is the compiler-backed half of the noalloc contract. The
// noalloc analyzer AST-checks //yield:noalloc bodies for allocation
// constructs, but only the gc escape analysis knows what actually reaches
// the heap, so `yieldvet escape`:
//
//  1. recompiles the module's packages with -gcflags=<module>/...=-m and
//     collects the "escapes to heap" / "moved to heap" diagnostics (the
//     build cache replays compiler output on cache hits, so repeat runs
//     stay cheap and still see every line);
//  2. fails on any such diagnostic inside a //yield:noalloc function that
//     is not excused by a //yield:allow(noalloc) on that line;
//  3. rules on allow(noalloc) staleness, which the AST pass alone cannot:
//     a suppression is live if either the AST check or the escape analysis
//     still flags its line, and an error otherwise.

// escapeLine matches one compiler diagnostic: file:line:col: message.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// noallocSpan is the file/line extent of one //yield:noalloc function.
type noallocSpan struct {
	file       string // absolute path
	start, end int
	name       string
}

func runEscape(patterns []string) int {
	targets, _, packageFile, goVersion, err := loadModulePackages("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet: %v\n", err)
		return 2
	}
	if len(targets) == 0 {
		return 0
	}
	modPath := ""
	if targets[0].Module != nil {
		modPath = targets[0].Module.Path
	}
	if modPath == "" {
		fmt.Fprintf(os.Stderr, "yieldvet: escape mode needs a module context\n")
		return 2
	}

	// Per-file annotation state across all targets, keyed by absolute path.
	var spans []noallocSpan
	type allowKey struct {
		file string
		line int
	}
	allAllows := make(map[allowKey]*analysis.Allow)
	covered := make(map[allowKey]bool)

	for _, p := range targets {
		filenames := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, name)
		}
		fset := token.NewFileSet()
		imp := load.ExportImporter(fset, nil, packageFile)
		target, err := load.Files(fset, p.ImportPath, filenames, imp, goVersion)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet: %s: %v\n", p.ImportPath, err)
			return 2
		}
		dirs := analysis.ParseDirectives(fset, target.Files)
		for _, fn := range dirs.Noalloc {
			start := fset.Position(fn.Pos())
			end := fset.Position(fn.End())
			spans = append(spans, noallocSpan{
				file:  mustAbs(start.Filename),
				start: start.Line,
				end:   end.Line,
				name:  fn.Name.Name,
			})
		}
		for file, byLine := range dirs.Allows {
			abs := mustAbs(file)
			for line, allows := range byLine {
				for _, a := range allows {
					if a.Rule == analysis.DirNoalloc {
						allAllows[allowKey{abs, line}] = a
					}
				}
			}
		}
		// The AST pass's raw findings keep allow(noalloc) suppressions of
		// AST-level constructs (append, make fallbacks, boxing) live even
		// when the compiler proves the construct never reaches the heap.
		pass := &analysis.Pass{
			Analyzer:  noalloc.Analyzer,
			Fset:      fset,
			Files:     target.Files,
			Pkg:       target.Pkg,
			TypesInfo: target.Info,
			Report: func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				covered[allowKey{mustAbs(pos.Filename), pos.Line}] = true
			},
		}
		if err := noalloc.Analyzer.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "yieldvet: %s: %v\n", p.ImportPath, err)
			return 2
		}
	}

	escapes, err := compileEscapes(modPath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yieldvet: %v\n", err)
		return 2
	}

	exit := 0
	for _, e := range escapes {
		span, ok := findSpan(spans, e.file, e.line)
		if !ok {
			continue
		}
		key := allowKey{e.file, e.line}
		if _, allowed := allAllows[key]; allowed {
			covered[key] = true
			continue
		}
		fmt.Fprintf(os.Stderr, "%s:%d: //yield:noalloc %s: %s [noalloc]\n",
			e.file, e.line, span.name, e.message)
		exit = 1
	}
	for key, a := range allAllows {
		if covered[key] {
			continue
		}
		fmt.Fprintf(os.Stderr, "%s:%d: stale //yield:allow(noalloc): neither the AST check nor the escape analysis flags this line any more [directive]\n",
			a.File, key.line)
		exit = 1
	}
	return exit
}

// escapeFinding is one heap-allocation diagnostic from the compiler.
type escapeFinding struct {
	file    string // absolute path
	line    int
	message string
}

// compileEscapes builds the matched packages with the escape-analysis debug
// flag and extracts the heap-allocation diagnostics.
func compileEscapes(modPath string, patterns []string) ([]escapeFinding, error) {
	args := append([]string{"build", "-gcflags=" + modPath + "/...=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			return nil, fmt.Errorf("go build -gcflags=-m: %v", err)
		}
		// With -m the compiler exits nonzero only for real compile errors;
		// surface them instead of silently passing.
		if !strings.Contains(out.String(), "escapes to heap") &&
			!strings.Contains(out.String(), "moved to heap") {
			return nil, fmt.Errorf("go build -gcflags=-m failed:\n%s", out.String())
		}
	}
	var findings []escapeFinding
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		findings = append(findings, escapeFinding{file: mustAbs(m[1]), line: n, message: m[3]})
	}
	return findings, sc.Err()
}

func findSpan(spans []noallocSpan, file string, line int) (noallocSpan, bool) {
	for _, s := range spans {
		if s.file == file && s.start <= line && line <= s.end {
			return s, true
		}
	}
	return noallocSpan{}, false
}

// mustAbs resolves a (possibly cwd-relative) compiler or FileSet path.
func mustAbs(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	return abs
}

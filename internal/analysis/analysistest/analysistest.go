// Package analysistest runs yieldvet analyzers over golden fixture
// packages, mirroring golang.org/x/tools/go/analysis/analysistest: fixture
// source marks each expected finding with a trailing
//
//	// want "regexp"
//
// comment on the flagged line (several per line allowed, in order), and
// the harness fails the test on any unmatched expectation or unexpected
// diagnostic. Because fixtures run through analysis.CheckFacts — the same
// entry point the yieldvet drivers use — suppression directives, their
// staleness rules and the cross-package facts layer are exercised exactly
// as in production runs.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/load"
)

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads testdata/src/<pkg> relative to the caller's package directory,
// runs the analyzers through analysis.CheckFacts, and diffs the
// diagnostics against the fixture's // want comments. Imports naming
// sibling directories under testdata/src resolve to those fixture
// packages, whose facts are computed first (in dependency order) so
// cross-package analyzers see dependencies exactly as the yieldvet
// drivers present them; // want expectations apply only to the target
// package.
//
//yield:allow(deadexport) test harness: only the analyzers' _test files call it
func Run(t *testing.T, pkg string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	dir := filepath.Join(root, pkg)
	loader := load.NewFixtureLoader(root)
	target, err := loader.Load(pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	expects, err := parseExpectations(dir)
	if err != nil {
		t.Fatal(err)
	}

	fs := analysis.NewFactSet()
	for _, dep := range loader.Loaded() {
		if dep == pkg {
			continue // CheckFacts computes the target's own facts
		}
		depTarget, err := loader.Load(dep)
		if err != nil {
			t.Fatalf("loading fixture dependency %s: %v", dep, err)
		}
		if err := analysis.ComputeFacts(depTarget, analyzers, fs); err != nil {
			t.Fatalf("computing facts for fixture dependency %s: %v", dep, err)
		}
	}

	diags, err := analysis.CheckFacts(target, analyzers, fs)
	if err != nil {
		t.Fatalf("checking fixture %s: %v", dir, err)
	}

	for _, d := range diags {
		pos := target.Fset.Position(d.Pos)
		base := filepath.Base(pos.Filename)
		if !claim(expects, base, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", base, pos.Line, d.Rule, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unmatched expectation on (file, line) whose regexp
// matches message.
func claim(expects []*expectation, file string, line int, message string) bool {
	for _, e := range expects {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.re.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseExpectations scans the fixture's raw source for // want comments.
func parseExpectations(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, arg[1], err)
				}
				out = append(out, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return out, nil
}

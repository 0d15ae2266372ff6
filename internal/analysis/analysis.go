// Package analysis is a deliberately small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough framework to write the
// repo-specific yieldvet analyzers (determinism, noalloc, canonical,
// errenvelope) against the standard library's go/ast and go/types.
//
// The module is stdlib-only by policy — the sandboxed builders this repo
// grows under have no module proxy — so instead of importing x/tools the
// package mirrors the parts of its API the analyzers need: an Analyzer
// carries a name, documentation and a Run function; a Pass hands Run one
// type-checked package and collects Diagnostics. The shapes match x/tools
// closely enough that porting the analyzers onto the real framework is a
// mechanical change should the dependency ever become available.
//
// On top of the x/tools shape the package adds the repo's suppression
// story: //yield:allow(rule) directives (see directive.go) are applied by
// CheckFacts in run.go, which also verifies the directives themselves —
// unknown rules, missing reasons and stale suppressions are diagnostics, so
// the annotation layer cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: a named invariant checker over a
// single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is the rule name
	// //yield:allow(name) suppresses. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph documentation shown by `yieldvet help`.
	Doc string

	// Run applies the analyzer to one package. Findings go through
	// pass.Report; the error return is for the analyzer itself failing,
	// not for findings.
	Run func(*Pass) error

	// FactComputer, if set, derives this analyzer's per-package fact: a
	// JSON-serializable summary of the package that runs over importing
	// packages consult via Pass.PackageFact. It runs as a pre-pass (no
	// reporting) over every package in the dependency graph, including
	// ones never checked. The encoding must be deterministic — see the
	// contract in facts.go. A nil return records no fact.
	FactComputer func(*Pass) (any, error)
}

// String returns the analyzer's name; diagnostics and drivers print it.
func (a *Analyzer) String() string { return a.Name }

// A Pass connects one Analyzer run to the package under analysis.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one finding. CheckFacts installs a collector here.
	Report func(Diagnostic)

	// facts is the session's fact set, nil when the driver runs without
	// cross-package facts.
	facts *FactSet
}

// PackageFact decodes this analyzer's fact for the package with the given
// import path into out, reporting whether one was recorded. Facts exist
// only for packages the driver ran the fact pre-pass over — in-module
// dependencies — so a false return means "nothing known", not "empty".
func (p *Pass) PackageFact(pkgPath string, out any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.get(pkgPath, p.Analyzer.Name, out)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NonTestFiles returns the pass's files excluding _test.go files. The
// yieldvet invariants target production code: tests legitimately use wall
// clocks, environment variables and allocation-heavy helpers, and `go vet`
// hands vettools the test-augmented package variants too.
func (p *Pass) NonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// A Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos token.Pos
	// Rule is the analyzer (or directive-checker) name; CheckFacts fills it in.
	Rule    string
	Message string
}

// A Target is one loaded, type-checked package ready for analysis — the
// input CheckFacts shares between the analysistest harness, the standalone
// driver and the `go vet -vettool` config mode.
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

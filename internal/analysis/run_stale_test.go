package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/analysis/atomicsafe"
	"github.com/cnfet/yieldlab/internal/analysis/ctxflow"
	"github.com/cnfet/yieldlab/internal/analysis/spanbalance"
)

// TestStaleAllowsForSuiteRules proves the staleness gate extends to the v2
// analyzers: a //yield:allow for ctxflow, spanbalance, atomicsafe or apilock
// on a line none of them flags is itself an error, so waivers cannot outlive
// the finding that justified them.
func TestStaleAllowsForSuiteRules(t *testing.T) {
	suite := []*analysis.Analyzer{
		ctxflow.Analyzer,
		spanbalance.Analyzer,
		atomicsafe.Analyzer,
		apilock.Analyzer,
	}
	for _, rule := range []string{"ctxflow", "spanbalance", "atomicsafe", "apilock"} {
		t.Run(rule, func(t *testing.T) {
			src := fmt.Sprintf(`package fixture
func f() {
	_ = 1 //yield:allow(%s) nothing on this line triggers the rule
}
`, rule)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			info := analysis.NewInfo()
			pkg, err := (&types.Config{}).Check("fixture", fset, []*ast.File{f}, info)
			if err != nil {
				t.Fatal(err)
			}
			target := &analysis.Target{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
			diags, err := analysis.CheckFacts(target, suite, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := "stale //yield:allow(" + rule + ")"
			if len(diags) != 1 || !strings.Contains(diags[0].Message, want) {
				t.Fatalf("want exactly one diagnostic containing %q, got %v", want, diags)
			}
		})
	}
}

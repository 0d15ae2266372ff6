package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSource type-checks src as one package and runs Check with the given
// analyzers. Fixtures here are import-free, so a nil importer suffices and
// the tests stay fast.
func checkSource(t *testing.T, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := NewInfo()
	conf := &types.Config{}
	pkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	target := &Target{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
	diags, err := CheckFacts(target, analyzers, nil)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return diags
}

// flagCalls flags every call to a function literally named "flagme" — a
// minimal analyzer for exercising the suppression layer.
var flagCalls = &Analyzer{
	Name: "flagcalls",
	Doc:  "test analyzer: flag calls to flagme",
	Run: func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagme" {
					pass.Reportf(call.Pos(), "call to flagme")
				}
				return true
			})
		}
		return nil
	},
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Rule+": "+d.Message)
	}
	return out
}

func wantOne(t *testing.T, diags []Diagnostic, substr string) {
	t.Helper()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, substr) {
		t.Fatalf("want exactly one diagnostic containing %q, got %v", substr, messages(diags))
	}
}

func TestAllowSuppressesFinding(t *testing.T) {
	diags := checkSource(t, `package fixture
func flagme() {}
func f() {
	flagme() //yield:allow(flagcalls) exercised deliberately in this test
}
`, flagCalls)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", messages(diags))
	}
}

func TestStandaloneAllowCoversNextLineOnly(t *testing.T) {
	diags := checkSource(t, `package fixture
func flagme() {}
func f() {
	//yield:allow(flagcalls) the first call is fine here
	flagme()
	flagme()
}
`, flagCalls)
	wantOne(t, diags, "call to flagme")
}

func TestTrailingAllowDoesNotLeakToNextLine(t *testing.T) {
	// The suppression on line N must not swallow line N+1's finding — the
	// exact adjacency that appears on consecutive struct fields.
	diags := checkSource(t, `package fixture
func flagme() {}
func f() {
	flagme() //yield:allow(flagcalls) this call is fine
	flagme()
}
`, flagCalls)
	wantOne(t, diags, "call to flagme")
}

func TestUnknownRuleIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
func flagme() {}
func f() {
	flagme() //yield:allow(flagcalls) suppressed for the test
	//yield:allow(nosuchrule) reason text
	_ = 1
}
`, flagCalls)
	wantOne(t, diags, `unknown rule "nosuchrule"`)
}

func TestMissingReasonIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
func flagme() {}
func f() {
	flagme() //yield:allow(flagcalls)
}
`, flagCalls)
	// The reasonless allow is rejected at parse time, so it also fails to
	// suppress: the finding survives alongside the directive error.
	if len(diags) != 2 {
		t.Fatalf("want finding + directive error, got %v", messages(diags))
	}
	var sawReason, sawFinding bool
	for _, d := range diags {
		sawReason = sawReason || strings.Contains(d.Message, "needs a non-empty reason")
		sawFinding = sawFinding || strings.Contains(d.Message, "call to flagme")
	}
	if !sawReason || !sawFinding {
		t.Fatalf("want both the missing-reason error and the unsuppressed finding, got %v", messages(diags))
	}
}

func TestMissingRuleNameIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
//yield:allow() because
func f() {}
`)
	wantOne(t, diags, "needs a rule name")
}

func TestMalformedAllowIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
//yield:allow flagcalls without parentheses
func f() {}
`)
	wantOne(t, diags, "malformed //yield:allow directive")
}

func TestStaleAllowIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
func f() {
	_ = 1 //yield:allow(flagcalls) nothing here is actually flagged
}
`, flagCalls)
	wantOne(t, diags, "stale //yield:allow(flagcalls)")
}

func TestNoallocAllowIsExemptFromASTStaleness(t *testing.T) {
	// noalloc allows may exist solely for `yieldvet escape` findings; only
	// escape mode can rule them stale.
	diags := checkSource(t, `package fixture
func f() {
	_ = 1 //yield:allow(noalloc) compiler-level finding, invisible to the AST pass
}
`, flagCalls)
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", messages(diags))
	}
}

func TestUnknownDirectiveIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
//yield:nozalloc
func f() {}
`)
	wantOne(t, diags, "unknown yield: directive")
}

func TestMisplacedNoallocIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
func f() {
	//yield:noalloc
	_ = 1
}
`)
	wantOne(t, diags, "must be part of a function's doc comment")
}

func TestBlockCommentDirectiveIsAnError(t *testing.T) {
	diags := checkSource(t, `package fixture
/* yield:allow(flagcalls) hidden in a block comment */
func f() {}
`)
	wantOne(t, diags, "must use //-comments")
}

func TestDirectivesInTestFilesAreIgnored(t *testing.T) {
	fset := token.NewFileSet()
	src := `package fixture
func g() {
	_ = 1 //yield:allow(flagcalls) stale, but test files are exempt
}
`
	f, err := parser.ParseFile(fset, "fixture_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	pkg, err := (&types.Config{}).Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckFacts(&Target{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}, []*Analyzer{flagCalls}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("want no diagnostics from a test file, got %v", messages(diags))
	}
}

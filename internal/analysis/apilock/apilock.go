// Package apilock implements the yieldvet analyzer pinning the exported
// API surface of the module's public packages, apidiff-style.
//
// The analyzer renders each pinned package's exported declarations into a
// deterministic one-line-per-declaration text (see Surface) and compares
// it against a golden snapshot embedded in this package. Any drift —
// a new exported declaration, a removed one, a changed signature, field,
// or struct tag — fails the build until the golden is refreshed
// deliberately with `yieldvet apilock -update`. Struct tags are part of
// the pin on purpose: a json tag rename silently re-keys every encoded
// result.
//
// Alongside the API goldens the package embeds a fingerprint corpus:
// canonical QuerySpec JSON documents with their pinned `qs1-` cache
// fingerprints. The corpus is checked by `yieldvet apilock` and by an
// internal/query test (this package deliberately does not import query —
// the dependency points the other way), so any change that re-keys the
// cache/ETag identity of stored results fails loudly rather than silently
// orphaning every cached sweep.
package apilock

import (
	"embed"
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"

	"github.com/cnfet/yieldlab/internal/analysis"
)

// Analyzer is the apilock analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "apilock",
	Doc:  "exported API surfaces of pinned packages must match their golden snapshots",
	Run:  run,
}

//go:embed golden/yieldlab.api golden/query.api golden/fingerprints.json
var goldenFS embed.FS

// pins maps pinned package paths to their embedded golden files. The
// -update path of the yieldvet apilock subcommand regenerates exactly
// these files.
var pins = map[string]string{
	"github.com/cnfet/yieldlab":                "golden/yieldlab.api",
	"github.com/cnfet/yieldlab/internal/query": "golden/query.api",
}

// goldens is the runtime registry: pinned surfaces by package path.
// Populated from the embedded files at init; tests add fixture entries
// through RegisterGolden.
var goldens = map[string]string{}

func init() {
	for path, file := range pins {
		data, err := goldenFS.ReadFile(file)
		if err != nil {
			panic(fmt.Sprintf("apilock: embedded golden %s: %v", file, err))
		}
		goldens[path] = parseGolden(string(data))
	}
}

// parseGolden strips header ('#'-prefixed) and blank lines, returning the
// canonical surface text.
func parseGolden(data string) string {
	var lines []string
	for _, line := range strings.Split(data, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// FormatGolden renders a surface as a golden file body, headed by the
// package path so the file is self-describing.
func FormatGolden(pkgPath, surface string) []byte {
	return []byte("# package " + pkgPath + "\n# generated by yieldvet apilock -update — do not edit\n" + surface)
}

// PinnedPackages returns the pinned package paths, sorted.
func PinnedPackages() []string {
	paths := make([]string, 0, len(pins))
	for path := range pins {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// GoldenPath returns the package-relative golden file for a pinned
// package path.
func GoldenPath(pkgPath string) (string, bool) {
	file, ok := pins[pkgPath]
	return file, ok
}

// PinnedSurface returns the registered golden surface for a package
// path, if any.
func PinnedSurface(pkgPath string) (string, bool) {
	surface, ok := goldens[pkgPath]
	return surface, ok
}

// RegisterGolden pins a surface for a package path at runtime. Test hook:
// fixtures cannot ship embedded goldens, so their tests register the
// expected (or deliberately drifted) surface before running the analyzer.
//
//yield:allow(deadexport) test hook: the fixture tests register their goldens through it
func RegisterGolden(pkgPath, surface string) {
	goldens[pkgPath] = surface
}

// Surface renders the exported API of a package as deterministic text:
// one line per exported package-level declaration and per exported method
// of an exported non-alias named type, sorted. Types print with their
// full underlying representation (struct fields, tags, interface
// methods), qualified relative to the package, so any observable change
// produces a line-level diff.
func Surface(pkg *types.Package) string {
	qual := types.RelativeTo(pkg)
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		lines = append(lines, types.ObjectString(obj, qual))
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						lines = append(lines, types.ObjectString(m, qual))
					}
				}
			}
		}
	}
	if len(lines) == 0 {
		return ""
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// CorpusEntry is one pinned QuerySpec fingerprint: the spec document as
// submitted, and the qs1- fingerprint its canonical form must hash to.
type CorpusEntry struct {
	Name        string          `json:"name"`
	Spec        json.RawMessage `json:"spec"`
	Fingerprint string          `json:"fingerprint"`
}

// Corpus returns the embedded fingerprint corpus.
func Corpus() ([]CorpusEntry, error) {
	data, err := goldenFS.ReadFile("golden/fingerprints.json")
	if err != nil {
		return nil, fmt.Errorf("apilock: embedded corpus: %w", err)
	}
	var entries []CorpusEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("apilock: parsing fingerprint corpus: %w", err)
	}
	return entries, nil
}

func run(pass *analysis.Pass) error {
	want, ok := goldens[pass.Pkg.Path()]
	if !ok {
		return nil
	}
	// `go vet` also hands vettools the test-augmented variant of each
	// package; its scope includes Test/Benchmark/Fuzz functions and
	// test-only helpers, which are not API. Only the pure variant is
	// compared against the pin.
	files := pass.NonTestFiles()
	if len(files) != len(pass.Files) || len(files) == 0 {
		return nil
	}
	got := Surface(pass.Pkg)
	if got == want {
		return nil
	}
	pos := files[0].Name.Pos()
	wantSet := lineSet(want)
	gotSet := lineSet(got)
	for _, line := range sortedLines(got) {
		if !wantSet[line] {
			pass.Reportf(pos, "exported API drift: %q is not in the pinned surface — review the change, then refresh the pin with 'yieldvet apilock -update'", line)
		}
	}
	for _, line := range sortedLines(want) {
		if !gotSet[line] {
			pass.Reportf(pos, "exported API drift: pinned declaration %q is missing from the package", line)
		}
	}
	return nil
}

func lineSet(surface string) map[string]bool {
	set := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(surface, "\n"), "\n") {
		if line != "" {
			set[line] = true
		}
	}
	return set
}

func sortedLines(surface string) []string {
	set := lineSet(surface)
	lines := make([]string, 0, len(set))
	for line := range set {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

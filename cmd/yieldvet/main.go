// Command yieldvet is the repo's static-analysis suite: a vet-style
// multichecker proving the invariants the yield stack's correctness story
// leans on — determinism of the compute packages, zero-allocation Monte
// Carlo hot paths, exhaustive canonical fingerprints, the server's JSON
// error envelope, context flow into sweep/MC work (ctxflow), span
// begin/end balance (spanbalance), atomic/lock discipline (atomicsafe),
// a pinned exported-API surface (apilock) and no exported name of an
// internal/ package without a non-test caller (deadexport).
// Cross-package analyzers exchange per-package facts: serialized into the
// vetx files of the -vettool protocol, or computed in import order by the
// standalone driver. See DESIGN.md §7 for what each analyzer enforces and how
// //yield:allow suppressions work.
//
// Ways to run it:
//
//	go vet -vettool=$(go env GOPATH)/bin/yieldvet ./...
//	    the go command drives one yieldvet process per package through
//	    vet's config-file protocol (build-cached, test files included);
//
//	go run ./cmd/yieldvet ./...
//	    standalone mode: yieldvet resolves the patterns itself via
//	    go list -export and checks every module package;
//
//	go run ./cmd/yieldvet escape ./...
//	    escape mode: recompiles the module with -gcflags=-m and fails if
//	    the compiler reports a heap allocation inside any function
//	    annotated //yield:noalloc — the ground truth the noalloc
//	    analyzer's AST view approximates. Also rules on the staleness of
//	    //yield:allow(noalloc) suppressions, which the AST pass alone
//	    cannot decide.
//
//	go run ./cmd/yieldvet apilock [-update]
//	    apilock mode: verifies the pinned QuerySpec fingerprint corpus
//	    against the live canonicalizer and the pinned API surfaces
//	    against the live packages; -update regenerates the goldens in
//	    internal/analysis/apilock/golden after a reviewed API change;
//
//	go run ./cmd/yieldvet deadexport
//	    deadexport mode: loads every non-test package of the module and
//	    of each module nested in its tree (yieldbench) and fails on an
//	    exported name of an internal/ package that none of them uses —
//	    a method also counts as used when its type implements an
//	    interface that has it. Takes no arguments; rules on the
//	    staleness of //yield:allow(deadexport) suppressions.
//
// The tool is stdlib-only: the analyzers run on a miniature analysis
// framework (internal/analysis) mirroring golang.org/x/tools/go/analysis,
// which the sandboxed build environment cannot fetch.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"github.com/cnfet/yieldlab/internal/analysis"
	"github.com/cnfet/yieldlab/internal/analysis/apilock"
	"github.com/cnfet/yieldlab/internal/analysis/atomicsafe"
	"github.com/cnfet/yieldlab/internal/analysis/canonical"
	"github.com/cnfet/yieldlab/internal/analysis/ctxflow"
	"github.com/cnfet/yieldlab/internal/analysis/determinism"
	"github.com/cnfet/yieldlab/internal/analysis/errenvelope"
	"github.com/cnfet/yieldlab/internal/analysis/noalloc"
	"github.com/cnfet/yieldlab/internal/analysis/spanbalance"
)

// suite is the yieldvet analyzer set. Order is presentation only;
// diagnostics are sorted by position.
func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		noalloc.Analyzer,
		canonical.Analyzer,
		errenvelope.Analyzer,
		ctxflow.Analyzer,
		spanbalance.Analyzer,
		atomicsafe.Analyzer,
		apilock.Analyzer,
	}
}

func main() {
	args := os.Args[1:]

	// The go vet -vettool protocol: -V=full identifies the tool for build
	// caching, -flags describes tool flags (yieldvet has none), and a
	// single *.cfg argument asks for one compilation unit to be checked.
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			fmt.Printf("yieldvet version devel buildID=%[1]s/%[1]s/%[1]s/%[1]s\n", selfID())
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetConfig(args[0]))
	}

	if len(args) > 0 && args[0] == "escape" {
		os.Exit(runEscape(defaultPatterns(args[1:])))
	}
	if len(args) > 0 && args[0] == "apilock" {
		os.Exit(runApilock(args[1:]))
	}
	if len(args) > 0 && args[0] == "deadexport" {
		os.Exit(runDeadexport(".", args[1:], os.Stderr))
	}
	os.Exit(runStandalone(defaultPatterns(args)))
}

// defaultPatterns applies the ./... default.
func defaultPatterns(args []string) []string {
	if len(args) == 0 {
		return []string{"./..."}
	}
	return args
}

// selfID derives the tool's build-cache identity from its own executable
// bytes, so editing an analyzer invalidates go vet's cached verdicts.
func selfID() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			return hex.EncodeToString(sum[:12])
		}
	}
	// Without a readable executable there is nothing stable to key on;
	// an always-changing ID just disables caching, which is safe.
	return "unknown"
}

// printDiagnostics renders findings the way vet tools do and reports
// whether there were any.
func printDiagnostics(target *analysis.Target, diags []analysis.Diagnostic) bool {
	for _, d := range diags {
		pos := target.Fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pos, d.Message, d.Rule)
	}
	return len(diags) > 0
}

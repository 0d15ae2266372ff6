// Package determinism checks that the repo's compute packages stay
// bit-reproducible: Monte Carlo estimates, sweep tables and canonical
// fingerprints must come out identical for identical inputs, across worker
// counts and across processes — that property backs the paper-anchor
// comparisons, the /v2/query ETags and BENCH_BASELINE.json.
//
// In compute packages — those declaring a //yield:compute line in their
// package doc comment (dist, renewal, rowyield, montecarlo, rareevent,
// query, experiments, ...) — the analyzer flags:
//
//   - the global math/rand functions (rand.Float64, rand.Intn, ...): all
//     randomness must flow through an explicit *rand.Rand from
//     internal/rng, so a root seed reproduces every stream;
//   - wall-clock and environment reads (time.Now/Since/Until,
//     os.Getenv/LookupEnv/Environ) in pure evaluation paths;
//   - `range` over a map whose body appends to an outer slice, folds into
//     a float accumulator, or serializes (JSON/fmt writes): map iteration
//     order is randomized per run, so any order-sensitive fold diverges.
//     Appending keys and sorting immediately after the loop — the repo's
//     sorted-keys idiom — is recognized and not flagged;
//   - `go` statements: a compute package fans out through internal/ordered,
//     whose one claim loop returns the error of the lowest failing index
//     and leaves merging in index order to its caller, so no result
//     depends on the worker count or on which goroutine finished first.
//
// Integer accumulation over a map is deliberately not flagged: integer
// addition is associative and commutative, so iteration order cannot
// change the sum. Float addition is neither.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cnfet/yieldlab/internal/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag nondeterminism sources (global rand, wall clock, env, order-sensitive map iteration, " +
		"go statements) in compute packages",
	Run: run,
}

// Compute packages declare themselves with a //yield:compute line in
// their package doc comment; the analyzer runs only on packages carrying
// the directive. Self-declaration replaced a hardcoded name list that
// silently went stale (it missed rareevent, whose estimates back the
// paper anchors exactly like montecarlo's). The service/persistence
// layer (server, sweepstore) and the sanctioned randomness wrapper (rng)
// simply carry no directive: servers legitimately read clocks and
// environments, and rng exists to own the math/rand construction
// everything else must route through.

// allowedRandFuncs are the math/rand package-level functions that carry no
// hidden global state: constructors internal/rng itself builds on.
var allowedRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// impureFuncs lists forbidden package-level functions by package path.
var impureFuncs = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
}

func run(pass *analysis.Pass) error {
	if !analysis.ParseDirectives(pass.Fset, pass.Files).Compute {
		return nil
	}
	for _, file := range pass.NonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkImpureCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in a compute package; fan out through internal/ordered, whose contract keeps results independent of the worker count")
			}
			return true
		})
	}
	return nil
}

// checkImpureCall flags selector uses that resolve to forbidden
// package-level functions.
func checkImpureCall(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods (e.g. (*rand.Rand).Float64)
	// operate on explicit state and are exactly what we want instead.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch path := fn.Pkg().Path(); path {
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global %s.%s draws from shared process state; take a *rand.Rand built by internal/rng instead",
				fn.Pkg().Name(), fn.Name())
		}
	default:
		if impureFuncs[path][fn.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s in a compute package makes evaluation irreproducible; thread the value in from the caller",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive folds inside `range` over a map.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	if rng.X == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested ranges get their own visit from the file-level walk.
			return false
		case *ast.AssignStmt:
			checkRangeAssign(pass, rng, n)
		case *ast.CallExpr:
			checkRangeCall(pass, rng, n)
		}
		return true
	})
}

// checkRangeAssign flags `s = append(s, ...)` to an outer slice (unless a
// sort call follows the loop) and float compound assignment to an outer
// accumulator.
func checkRangeAssign(pass *analysis.Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	switch assign.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(assign.Lhs) {
				continue
			}
			lhs, ok := assign.Lhs[i].(*ast.Ident)
			if !ok || definedWithin(pass, lhs, rng) {
				continue
			}
			if sortedAfter(pass, rng, lhs.Name) {
				continue // the append-keys-then-sort idiom is deterministic
			}
			pass.Reportf(assign.Pos(),
				"appending to %s in map-iteration order is nondeterministic; collect and sort the keys first",
				lhs.Name)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := assign.Lhs[0]
		tv, ok := pass.TypesInfo.Types[lhs]
		if !ok {
			return
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return // integer folds are order-independent
		}
		if id, ok := lhs.(*ast.Ident); ok && definedWithin(pass, id, rng) {
			return
		}
		pass.Reportf(assign.Pos(),
			"float accumulation in map-iteration order is nondeterministic; iterate sorted keys instead")
	}
}

// serializers lists call targets that emit bytes in iteration order.
var serializers = map[string]map[string]bool{
	"encoding/json": {"Marshal": true, "MarshalIndent": true},
	"fmt":           {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"io":            {"WriteString": true},
}

// checkRangeCall flags serialization inside the loop body.
func checkRangeCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Methods: flag the JSON encoder's Encode.
		if fn.Name() == "Encode" && fn.Pkg().Path() == "encoding/json" {
			pass.Reportf(call.Pos(),
				"encoding JSON in map-iteration order is nondeterministic; iterate sorted keys instead")
		}
		return
	}
	if serializers[fn.Pkg().Path()][fn.Name()] {
		pass.Reportf(call.Pos(),
			"writing output in map-iteration order is nondeterministic; iterate sorted keys instead")
	}
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// definedWithin reports whether id's object is declared inside the range
// statement (loop-local state resets every iteration, so folding into it
// is fine).
func definedWithin(pass *analysis.Pass, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}

// sortedAfter reports whether some statement after rng in its enclosing
// block sorts name: a call to sort.* or slices.Sort* mentioning it.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, name string) bool {
	block := enclosingBlock(pass, rng)
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
				return true
			}
			for _, arg := range call.Args {
				mentioned := false
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && id.Name == name {
						mentioned = true
					}
					return !mentioned
				})
				if mentioned {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingBlock finds the innermost block statement containing rng.
func enclosingBlock(pass *analysis.Pass, rng *ast.RangeStmt) *ast.BlockStmt {
	for _, file := range pass.Files {
		if rng.Pos() < file.Pos() || rng.Pos() > file.End() {
			continue
		}
		var best *ast.BlockStmt
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if n.Pos() > rng.Pos() || n.End() < rng.End() {
				return false
			}
			if b, ok := n.(*ast.BlockStmt); ok {
				for _, stmt := range b.List {
					if stmt == ast.Stmt(rng) {
						best = b
					}
				}
			}
			return true
		})
		return best
	}
	return nil
}

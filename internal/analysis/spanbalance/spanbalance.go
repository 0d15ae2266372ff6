// Package spanbalance implements the yieldvet analyzer enforcing the obs
// span contract at every obs.Start/obs.StartLeaf call site:
//
//   - the span is ended on all return paths — a defer, an End (or a call
//     to a same-package "ender" helper, one that provably ends its *Span
//     parameter on all of its own paths) dominating each return, or a
//     deferred closure that ends it;
//   - obs.Start's derived context is used, not discarded: under a dropped
//     context every nested Start silently becomes a sibling, so deliberate
//     leaf spans must say so by calling obs.StartLeaf instead (or carry a
//     //yield:allow(spanbalance) waiver);
//   - the span result itself is never discarded — a span nothing holds
//     can never be ended.
//
// The path analysis is lexical, not a full CFG: straight-line statements
// propagate the "ended" state, conditional and loop bodies are checked
// with an inherited copy (an End inside a branch does not count after
// it), and a span that escapes the function — stored, returned, passed to
// a non-ender call, captured by a non-deferred closure — is assumed
// handled by its new owner. goto (or a span bound somewhere the walker
// cannot follow) likewise ends tracking conservatively: spanbalance
// prefers silence to false alarms, and the golden fixtures pin down
// exactly which shapes it vouches for.
package spanbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/cnfet/yieldlab/internal/analysis"
)

// Analyzer is the spanbalance analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanbalance",
	Doc:  "obs spans must be ended on all return paths and derived contexts must be used",
	Run:  run,
}

// safeMethods are *obs.Span methods that neither end nor leak the span.
var safeMethods = map[string]bool{
	"SetAttr":   true,
	"SetStr":    true,
	"SetInt":    true,
	"SetUint":   true,
	"SetFloat":  true,
	"SetBool":   true,
	"SetName":   true,
	"MC":        true,
	"Name":      true,
	"Duration":  true,
	"Attrs":     true,
	"AttrValue": true,
	"Children":  true,
}

type checker struct {
	pass   *analysis.Pass
	enders map[*types.Func]bool
	// decls maps this package's functions to their declarations, for
	// ender-candidate analysis.
	decls map[*types.Func]*ast.FuncDecl
	// inProgress guards recursive ender analysis against call cycles.
	inProgress map[*types.Func]bool
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "obs" {
		return nil // the span API's own wrappers are not call sites
	}
	c := &checker{
		pass:       pass,
		enders:     make(map[*types.Func]bool),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		inProgress: make(map[*types.Func]bool),
	}
	for _, file := range pass.NonTestFiles() {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					c.decls[obj] = fn
				}
			}
		}
	}
	for _, file := range pass.NonTestFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.checkBlocks(fn.Body.List, true)
			// Spans inside function literals are checked against the
			// literal's own body.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkBlocks(lit.Body.List, true)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// checkBlocks scans one statement list for span bindings, recursing into
// nested blocks. terminal reports whether falling off the end of this list
// falls off the end of the enclosing function.
func (c *checker) checkBlocks(stmts []ast.Stmt, terminal bool) {
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			c.checkBinding(s, stmts[i+1:], terminal)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if kind := c.startKind(call); kind != notStart {
					c.pass.Reportf(call.Pos(),
						"result of obs.%s discarded — a span nothing holds can never be ended", kind)
				}
			}
		}
		for _, sub := range subBlocks(stmt) {
			c.checkBlocks(sub, false)
		}
	}
}

// subBlocks returns the nested statement lists of one statement (branch
// and loop bodies), excluding function literals.
func subBlocks(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, []ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, []ast.Stmt{s.Stmt})
	}
	return out
}

type startKind string

const (
	notStart      startKind = ""
	startCall     startKind = "Start"
	startLeafCall startKind = "StartLeaf"
)

func (k startKind) String() string { return string(k) }

// startKind classifies a call as obs.Start, obs.StartLeaf, or neither.
func (c *checker) startKind(call *ast.CallExpr) startKind {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return notStart
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "obs" {
		return notStart
	}
	switch fn.Name() {
	case "Start":
		return startCall
	case "StartLeaf":
		return startLeafCall
	}
	return notStart
}

// checkBinding handles an assignment whose RHS starts spans: discard
// rules, then End-on-all-paths over the rest of the binding's block.
func (c *checker) checkBinding(assign *ast.AssignStmt, rest []ast.Stmt, terminal bool) {
	type binding struct {
		call *ast.CallExpr
		kind startKind
		span ast.Expr
		ctx  ast.Expr // nil for StartLeaf
	}
	var bindings []binding
	if len(assign.Rhs) == 1 {
		if call, ok := assign.Rhs[0].(*ast.CallExpr); ok {
			if kind := c.startKind(call); kind == startCall && len(assign.Lhs) == 2 {
				bindings = append(bindings, binding{call, kind, assign.Lhs[1], assign.Lhs[0]})
			} else if kind == startLeafCall && len(assign.Lhs) == 1 {
				bindings = append(bindings, binding{call, kind, assign.Lhs[0], nil})
			}
		}
	} else {
		for i, rhs := range assign.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && c.startKind(call) == startLeafCall {
				bindings = append(bindings, binding{call, startLeafCall, assign.Lhs[i], nil})
			}
		}
	}
	for _, b := range bindings {
		if isBlank(b.span) {
			c.pass.Reportf(b.call.Pos(),
				"span from obs.%s discarded — a span nothing holds can never be ended", b.kind)
			continue
		}
		if b.ctx != nil && isBlank(b.ctx) {
			c.pass.Reportf(b.call.Pos(),
				"derived context from obs.Start discarded — thread it, or make the leaf span explicit with obs.StartLeaf")
		}
		sp := c.spanObject(b.span)
		if sp == nil {
			continue // bound to a field or index expression: owner's problem
		}
		c.checkEnded(b.call, sp, rest, terminal)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// spanObject resolves the variable a span was bound to.
func (c *checker) spanObject(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// pathState tracks whether the span is ended along the current
// straight-line path.
type pathState struct {
	ended    bool
	deferred bool
}

// checkEnded verifies sp is ended on every path through rest, reporting at
// the Start call. Any shape the lexical walker cannot follow (escape,
// goto) ends tracking without a report.
func (c *checker) checkEnded(start *ast.CallExpr, sp types.Object, rest []ast.Stmt, terminal bool) {
	var st pathState
	pos, ok := c.walk(rest, sp, &st, terminal)
	if !ok {
		return // escaped or untrackable: assume handled
	}
	if pos.IsValid() {
		c.pass.Reportf(start.Pos(),
			"span %s is not ended on the return path at %s — defer %s.End() or end it before returning",
			sp.Name(), c.pass.Fset.Position(pos), sp.Name())
		return
	}
	if terminal && !st.ended && !st.deferred && !terminates(rest) {
		c.pass.Reportf(start.Pos(),
			"span %s is not ended before the function falls off the end — defer %s.End() or end it on every path",
			sp.Name(), sp.Name())
	}
}

// walk processes stmts in order, updating st. It returns the position of
// the first return the span can leak through (NoPos if none) and whether
// tracking survived (false: the span escaped or control flow is
// untrackable, stop without reporting).
func (c *checker) walk(stmts []ast.Stmt, sp types.Object, st *pathState, terminal bool) (token.Pos, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && c.endsSpan(call, sp) {
				st.ended = true
				continue
			}
		case *ast.DeferStmt:
			if c.endsSpan(s.Call, sp) {
				st.deferred = true
				continue
			}
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && c.litEndsSpan(lit, sp) {
				st.deferred = true
				continue
			}
		case *ast.ReturnStmt:
			if st.ended || st.deferred {
				return token.NoPos, true // nothing after a return is reachable
			}
			if c.mentions(s, sp) {
				// e.g. `return handoff(sp)`: the span leaves through the
				// return value; its new owner ends it.
				return token.NoPos, false
			}
			return s.Pos(), true
		case *ast.BranchStmt:
			if s.Tok == token.GOTO {
				return token.NoPos, false
			}
		case *ast.IfStmt:
			// Nil-guard idioms get exact treatment: under `sp == nil`
			// every span method is a no-op, so returning early leaks
			// nothing; under `sp != nil` an End in the body is
			// semantically unconditional.
			if s.Init == nil && s.Else == nil {
				switch nilCheck(c.pass, s.Cond, sp) {
				case spanIsNil:
					continue
				case spanNonNil:
					if pos, ok := c.walk(s.Body.List, sp, st, false); !ok {
						return token.NoPos, false
					} else if pos.IsValid() {
						return pos, true
					}
					continue
				}
			}
		case *ast.AssignStmt:
			// A rebind of the span variable (or any other use the escape
			// scan finds below) gives up tracking.
		}
		if c.escapes(stmt, sp) {
			return token.NoPos, false
		}
		// Branch and loop bodies are checked with an inherited copy of the
		// state: an End inside them does not dominate the code after.
		for _, sub := range subBlocks(stmt) {
			copySt := *st
			if pos, ok := c.walk(sub, sp, &copySt, false); !ok {
				return token.NoPos, false
			} else if pos.IsValid() {
				return pos, true
			}
		}
	}
	return token.NoPos, true
}

// nilCheckResult classifies an if condition relative to the span variable.
type nilCheckResult int

const (
	notNilCheck nilCheckResult = iota
	spanIsNil
	spanNonNil
)

// nilCheck recognizes `sp == nil` and `sp != nil` conditions.
func nilCheck(pass *analysis.Pass, cond ast.Expr, sp types.Object) nilCheckResult {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return notNilCheck
	}
	isSp := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == sp
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !(isSp(bin.X) && isNil(bin.Y)) && !(isNil(bin.X) && isSp(bin.Y)) {
		return notNilCheck
	}
	if bin.Op == token.EQL {
		return spanIsNil
	}
	return spanNonNil
}

// mentions reports whether node references sp at all.
func (c *checker) mentions(node ast.Node, sp types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether a statement list cannot fall off its end.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ForStmt:
		return s.Cond == nil // for {}: only leaves via return/break inside
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// endsSpan reports whether call ends sp: sp.End(), or a same-package
// ender helper taking sp as an argument.
func (c *checker) endsSpan(call *ast.CallExpr, sp types.Object) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp && sel.Sel.Name == "End" {
			return true
		}
	}
	usesSp := false
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp {
			usesSp = true
		}
	}
	if !usesSp {
		return false
	}
	var calleeID *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeID = fun
	case *ast.SelectorExpr:
		calleeID = fun.Sel
	default:
		return false
	}
	callee, ok := c.pass.TypesInfo.Uses[calleeID].(*types.Func)
	if !ok {
		return false
	}
	return c.isEnder(callee)
}

// litEndsSpan recognizes `defer func() { ... sp.End() ... }()`.
func (c *checker) litEndsSpan(lit *ast.FuncLit, sp types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp && sel.Sel.Name == "End" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isEnder reports whether fn is an "ender": a function in this package
// with a *obs.Span parameter that it ends on all of its own paths.
// Results are memoized; recursion through call cycles resolves to false.
func (c *checker) isEnder(fn *types.Func) bool {
	if ender, ok := c.enders[fn]; ok {
		return ender
	}
	if c.inProgress[fn] {
		return false
	}
	decl, ok := c.decls[fn]
	if !ok {
		return false
	}
	var spanParam types.Object
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isSpanPtr(p.Type()) {
			spanParam = p
			break
		}
	}
	if spanParam == nil {
		c.enders[fn] = false
		return false
	}
	c.inProgress[fn] = true
	var st pathState
	pos, tracked := c.walk(decl.Body.List, spanParam, &st, true)
	ender := tracked && !pos.IsValid() && (st.ended || st.deferred)
	delete(c.inProgress, fn)
	c.enders[fn] = ender
	return ender
}

func isSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "obs" && obj.Name() == "Span"
}

// escapes reports whether stmt uses sp in any way the walker does not
// model: passed to a non-ender call, stored, returned, compared, captured
// by a closure. Safe span methods and recognized End/ender calls are
// excluded.
func (c *checker) escapes(stmt ast.Stmt, sp types.Object) bool {
	consumed := make(map[*ast.Ident]bool)
	// Pre-consume the idents of recognized end shapes so the generic scan
	// below only sees unexplained uses.
	preconsume := func(call *ast.CallExpr) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if id, ok := sel.X.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp {
				consumed[id] = true
			}
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp && c.endsSpan(call, sp) {
				consumed[id] = true
			}
		}
	}
	var allowLit *ast.FuncLit
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			preconsume(call)
		}
	case *ast.DeferStmt:
		preconsume(s.Call)
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && c.litEndsSpan(lit, sp) {
			allowLit = lit
		}
	}
	escaped := false
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == allowLit {
				return true
			}
			// A non-deferred closure capturing the span owns it now.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp {
					escaped = true
				}
				return !escaped
			})
			return false
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == sp &&
				(safeMethods[n.Sel.Name] || n.Sel.Name == "End") {
				consumed[id] = true
			}
		case *ast.Ident:
			if c.pass.TypesInfo.Uses[n] == sp && !consumed[n] {
				escaped = true
			}
		}
		return !escaped
	}
	// Branch bodies are scanned by their own walk recursion; here only the
	// statement's non-block parts matter. Scanning the whole statement
	// would double-report but never mis-report, so keep it simple.
	ast.Inspect(stmt, scan)
	return escaped
}

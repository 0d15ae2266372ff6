package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// This file parses the repo's //yield: comment directives:
//
//	//yield:noalloc
//	    on a function's doc comment: the function promises zero
//	    steady-state heap allocations. The noalloc analyzer AST-checks the
//	    body and `yieldvet escape` confirms it against the compiler's
//	    escape analysis.
//
//	//yield:allow(rule) reason
//	    on (or immediately above) a flagged line: suppresses diagnostics
//	    of the named rule on that line. The reason is mandatory — a
//	    suppression without a recorded justification is itself an error —
//	    and stale suppressions (no diagnostic left to suppress) fail the
//	    run, so annotations cannot outlive the code they excuse.
//
//	//yield:compute
//	    in a package's doc comment: the package is part of the numeric
//	    compute pipeline and opts into the determinism invariants. The
//	    determinism analyzer discovers its targets through this directive
//	    instead of a hardcoded package list, so new compute packages are
//	    covered the moment they declare themselves.
//
// Directives use the //-comment form only, like //go: pragmas; a directive
// inside a /* */ block is reported as malformed rather than ignored, so a
// typo cannot silently disable enforcement.

// DirNoalloc is the function-annotation directive name.
const DirNoalloc = "noalloc"

// DirCompute is the package-annotation directive name: a package whose doc
// comment carries //yield:compute opts into the determinism invariants.
const DirCompute = "compute"

// An Allow is one parsed //yield:allow directive.
type Allow struct {
	Pos    token.Pos // position of the comment
	Line   int       // line the comment sits on
	File   string    // file name (from the FileSet)
	Rule   string    // rule name inside the parentheses
	Reason string    // justification text after the parentheses
	used   bool      // set by CheckFacts when the allow suppresses a finding
}

// Directives is the parsed directive set of one package.
type Directives struct {
	// Allows indexes suppressions by file, then by the line they cover:
	// a trailing allow covers its own line, an allow on a line of its own
	// covers the next line.
	Allows map[string]map[int][]*Allow

	// Noalloc holds the declarations annotated //yield:noalloc.
	Noalloc []*ast.FuncDecl

	// Compute reports whether any file's package doc carries
	// //yield:compute.
	Compute bool

	// Problems are malformed directives: bad syntax, unknown directive
	// names, missing reasons, misplaced noalloc annotations.
	Problems []Diagnostic
}

var (
	yieldDirective = regexp.MustCompile(`^//yield:(\S+)`)
	allowSyntax    = regexp.MustCompile(`^//yield:allow\(([A-Za-z0-9_-]*)\)(.*)$`)
)

// ParseDirectives scans the //yield: directives of the given files.
// Directive syntax is validated here; rule-name validity and staleness need
// the analyzer set and the findings, so CheckFacts handles those.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{Allows: make(map[string]map[int][]*Allow)}
	for _, f := range files {
		fname := fset.Position(f.Package).Filename
		if strings.HasSuffix(fname, "_test.go") {
			continue // invariants target production code; tests are exempt
		}
		noallocDocs := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) == "//yield:"+DirNoalloc {
					noallocDocs[c] = true
					d.Noalloc = append(d.Noalloc, fn)
				}
			}
		}
		computeDocs := make(map[*ast.Comment]bool)
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if strings.TrimSpace(c.Text) == "//yield:"+DirCompute {
					computeDocs[c] = true
					d.Compute = true
				}
			}
		}
		codeCols := codeColumns(fset, f)
		for _, group := range f.Comments {
			for _, c := range group.List {
				d.parseComment(fset, fname, c, noallocDocs, computeDocs, codeCols)
			}
		}
	}
	return d
}

// codeColumns maps each line of f to the leftmost column where a
// non-comment node starts — the information that distinguishes a trailing
// directive (code before it on the line) from one standing on a line of
// its own.
func codeColumns(fset *token.FileSet, f *ast.File) map[int]int {
	cols := make(map[int]int)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		pos := fset.Position(n.Pos())
		if cur, ok := cols[pos.Line]; !ok || pos.Column < cur {
			cols[pos.Line] = pos.Column
		}
		return true
	})
	return cols
}

func (d *Directives) parseComment(fset *token.FileSet, fname string, c *ast.Comment, noallocDocs, computeDocs map[*ast.Comment]bool, codeCols map[int]int) {
	text := c.Text
	if !strings.Contains(text, "//yield:") && !strings.Contains(text, "yield:allow") &&
		!strings.Contains(text, "yield:"+DirNoalloc) {
		return
	}
	if strings.HasPrefix(text, "/*") && strings.Contains(text, "yield:") {
		d.Problems = append(d.Problems, Diagnostic{
			Pos:     c.Pos(),
			Message: "yield: directives must use //-comments, not /* */ blocks",
		})
		return
	}
	m := yieldDirective.FindStringSubmatch(text)
	if m == nil {
		return // an ordinary comment that merely mentions the word
	}
	switch {
	case m[1] == DirNoalloc:
		if strings.TrimSpace(text) != "//yield:"+DirNoalloc {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "malformed //yield:noalloc directive: no arguments allowed",
			})
			return
		}
		if !noallocDocs[c] {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "//yield:noalloc must be part of a function's doc comment",
			})
		}
	case m[1] == DirCompute:
		if strings.TrimSpace(text) != "//yield:"+DirCompute {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "malformed //yield:compute directive: no arguments allowed",
			})
			return
		}
		if !computeDocs[c] {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "//yield:compute must be part of the package doc comment",
			})
		}
	case strings.HasPrefix(m[1], "allow"):
		am := allowSyntax.FindStringSubmatch(text)
		if am == nil {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "malformed //yield:allow directive: want //yield:allow(rule) reason",
			})
			return
		}
		rule, reason := am[1], strings.TrimSpace(am[2])
		a := &Allow{Pos: c.Pos(), Line: fset.Position(c.Pos()).Line, File: fname, Rule: rule, Reason: reason}
		if rule == "" {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "//yield:allow needs a rule name: //yield:allow(rule) reason",
			})
			return
		}
		if reason == "" {
			d.Problems = append(d.Problems, Diagnostic{
				Pos:     c.Pos(),
				Message: "//yield:allow(" + rule + ") needs a non-empty reason",
			})
			return
		}
		byLine := d.Allows[fname]
		if byLine == nil {
			byLine = make(map[int][]*Allow)
			d.Allows[fname] = byLine
		}
		// A trailing allow (code starts before it on its line) covers
		// exactly that line; an allow standing on a line of its own covers
		// exactly the next line. Covering one line each keeps adjacent
		// findings from being swallowed by a neighbor's suppression.
		col := fset.Position(c.Pos()).Column
		if codeCol, ok := codeCols[a.Line]; ok && codeCol < col {
			byLine[a.Line] = append(byLine[a.Line], a)
		} else {
			byLine[a.Line+1] = append(byLine[a.Line+1], a)
		}
	default:
		d.Problems = append(d.Problems, Diagnostic{
			Pos:     c.Pos(),
			Message: "unknown yield: directive " + m[1] + " (have allow, compute, noalloc)",
		})
	}
}

// IsNoalloc reports whether fn carries the //yield:noalloc annotation.
func IsNoalloc(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == "//yield:"+DirNoalloc {
			return true
		}
	}
	return false
}

// allowsFor returns the suppressions covering the given file line.
func (d *Directives) allowsFor(file string, line int) []*Allow {
	return d.Allows[file][line]
}

// doccheck fails the build when an exported identifier in the audited
// packages lacks a doc comment. The public estimator surface (internal/query,
// internal/rareevent) and the observability layer (internal/obs) carry a
// documented contract — DESIGN.md §8 and §9 lean on the godoc of those
// packages — so an undocumented export there is a docs regression, not a
// style nit. CI runs it from the docs job.
//
// Usage:
//
//	go run ./cmd/doccheck [package-dir ...]
//
// With no arguments it audits the default set. A directory ending in
// "/..." is walked recursively, skipping testdata and golden trees (their
// fixtures are deliberately undocumented). Test files are skipped; an
// exported method counts like any other export. A grouped declaration
// (`const (...)`, `var (...)`) passes if either the group or the specific
// spec is documented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is the audited surface: the packages whose godoc the design
// documents point at. The analysis tree is audited recursively — DESIGN.md
// §7 leans on the godoc of every analyzer package.
var defaultDirs = []string{
	"internal/query",
	"internal/rareevent",
	"internal/obs",
	"internal/recfile",
	"internal/analysis/...",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var missing []string
	for _, dir := range dirs {
		expanded := []string{dir}
		if root, ok := strings.CutSuffix(dir, "/..."); ok {
			var err error
			expanded, err = walkDirs(root)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
				os.Exit(2)
			}
		}
		for _, d := range expanded {
			m, err := auditDir(d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
				os.Exit(2)
			}
			missing = append(missing, m...)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, m)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) without doc comments\n", len(missing))
		os.Exit(1)
	}
}

// walkDirs expands a recursive pattern root into the directories under it
// that contain .go files, skipping testdata and golden trees: analysis
// fixtures flag on purpose and golden files are generated, so neither is
// part of the documented surface.
func walkDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "golden":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		// A directory's files interleave lexically with its subdirectories,
		// so consecutive-dedup is not enough.
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// auditDir parses every non-test .go file in dir and returns one
// "file:line: name" entry per undocumented export.
func auditDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var missing []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		missing = append(missing, auditFile(fset, f)...)
	}
	return missing, nil
}

func auditFile(fset *token.FileSet, f *ast.File) []string {
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), declKind(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return missing
}

// exportedReceiver reports whether d is a plain function or a method on an
// exported receiver type; methods on unexported types are not part of the
// public godoc surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

func declKind(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	default:
		return "declaration"
	}
}

package main

import (
	"fmt"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/cnfet/yieldlab/internal/analysis"
)

// Deadexport mode holds the line "no exported name without a real
// caller" for the module's internal/ packages. A per-package analyzer
// cannot see importers, so this is a whole-module pass:
//
//  1. load every non-test package of the module, and of each module
//     nested in its directory tree (a nested module, such as the benchmark
//     harness, is a real caller its parent's build never sees);
//  2. collect every use of an identifier in those files, keyed by
//     package path and name so uses seen through export data and
//     declarations checked from source meet;
//  3. report each exported package-level name, and each exported method,
//     of an internal/ package that no such use reaches. A method also
//     counts as used when its receiver type implements an interface that
//     has it: one declared in the loaded packages, one they import, or
//     error;
//  4. excuse a finding under //yield:allow(deadexport) reason, and fail
//     on an allow that excuses nothing, the way escape mode rules on
//     allow(noalloc), and on a malformed directive (a reasonless allow
//     among them) in the module's files.

// declared is one exported name of an internal/ package.
type declared struct {
	pos    token.Position
	name   string      // pkg.Name or pkg.Type.Method, as useKey names it
	method *types.Func // nil for a package-level name
}

// methodSigs maps each method of an interface or method set, by Id, to
// its signature as sigString renders it.
type methodSigs map[string]string

// runDeadexport checks the module rooted at root, writes its findings to
// stderr and returns the exit code: 0 clean, 1 findings, 2 operational
// error.
func runDeadexport(root string, args []string, stderr io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintf(stderr, "yieldvet deadexport: takes no arguments, got %q\n", args)
		return 2
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		fmt.Fprintf(stderr, "yieldvet deadexport: %v\n", err)
		return 2
	}

	var decls []*declared
	uses := make(map[string]bool)
	// Interfaces by package path and name, so each counts once however
	// many packages import it.
	errMethod := types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)
	ifaces := map[string]methodSigs{"error": {errMethod.Id(): sigString(errMethod)}}
	var problems []string
	type allowKey struct {
		file string
		line int
	}
	allows := make(map[allowKey]string) // covered line → the allow's position
	for i, dir := range dirs {
		pkgs, _, packageFile, goVersion, err := loadModulePackages(dir, []string{"./..."})
		if err != nil {
			fmt.Fprintf(stderr, "yieldvet deadexport: %v\n", err)
			return 2
		}
		loader := &packageLoader{
			packageFile: packageFile,
			goVersion:   goVersion,
			loaded:      make(map[string]*analysis.Target),
		}
		for _, p := range pkgs {
			target, err := loader.load(p)
			if err != nil {
				fmt.Fprintf(stderr, "yieldvet deadexport: %s: %v\n", p.ImportPath, err)
				return 2
			}
			addInterfaces(ifaces, target)
			for _, obj := range target.Info.Uses {
				uses[useKey(obj)] = true
			}
			// Only the root module's internal/ packages are checked, so
			// only its files can carry a live allow.
			if i > 0 {
				continue
			}
			if isInternal(p.ImportPath) {
				decls = appendDeclared(decls, target)
			}
			d := analysis.ParseDirectives(target.Fset, target.Files)
			for _, prob := range d.Problems {
				problems = append(problems, fmt.Sprintf("%s: %s [%s]", target.Fset.Position(prob.Pos), prob.Message, analysis.DirectiveRule))
			}
			for file, byLine := range d.Allows {
				for line, as := range byLine {
					for _, a := range as {
						if a.Rule == analysis.DeadexportRule {
							allows[allowKey{file, line}] = target.Fset.Position(a.Pos).String()
						}
					}
				}
			}
		}
	}

	var out []string
	excused := make(map[allowKey]bool)
	for _, d := range decls {
		if uses[d.name] || (d.method != nil && implementsAny(d, ifaces)) {
			continue
		}
		if key := (allowKey{d.pos.Filename, d.pos.Line}); allows[key] != "" {
			excused[key] = true
			continue
		}
		out = append(out, fmt.Sprintf("%s: exported %s has no non-test caller [%s]", d.pos, d.name, analysis.DeadexportRule))
	}
	for key, pos := range allows {
		if !excused[key] {
			out = append(out, fmt.Sprintf("%s: stale //yield:allow(%s): no %[2]s finding on the line it covers — delete the suppression [%s]",
				pos, analysis.DeadexportRule, analysis.DirectiveRule))
		}
	}
	out = append(out, problems...)
	sort.Strings(out)
	for _, line := range out {
		fmt.Fprintln(stderr, line)
	}
	if len(out) > 0 {
		return 1
	}
	return 0
}

// moduleDirs returns root and the directory of every module nested under
// it, skipping what the go command skips: testdata and directories whose
// names start with "." or "_".
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == root {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// isInternal reports whether an import path lies under an internal/
// element.
func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// useKey names a used object the way appendDeclared names a declaration:
// pkgpath.Name for a package-level object, pkgpath.Type.Method for a
// method. Anything else (fields, locals) gets a key no declaration has.
func useKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if named := receiver(fn); named != nil {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiver returns the named type a method is declared on, nil for an
// interface method of an unnamed interface.
func receiver(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// appendDeclared adds target's exported package-level names and the
// exported methods of its named types, exported or not.
func appendDeclared(decls []*declared, target *analysis.Target) []*declared {
	scope := target.Pkg.Scope()
	path := target.Pkg.Path()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			decls = append(decls, &declared{pos: target.Fset.Position(obj.Pos()), name: path + "." + name})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				decls = append(decls, &declared{pos: target.Fset.Position(m.Pos()), name: path + "." + name + "." + m.Name(), method: m})
			}
		}
	}
	return decls
}

// addInterfaces adds the interfaces target can name: its own and the
// exported ones of the packages it imports.
func addInterfaces(ifaces map[string]methodSigs, target *analysis.Target) {
	add := func(pkg *types.Package, exportedOnly bool) {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || (exportedOnly && !tn.Exported()) {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
				continue
			}
			sigs := make(methodSigs, it.NumMethods())
			for i := 0; i < it.NumMethods(); i++ {
				sigs[it.Method(i).Id()] = sigString(it.Method(i))
			}
			ifaces[pkg.Path()+"."+name] = sigs
		}
	}
	add(target.Pkg, false)
	for _, imp := range target.Pkg.Imports() {
		add(imp, true)
	}
}

// implementsAny reports whether d's receiver type implements an interface
// that has d's method. Each package is type-checked on its own, so the
// same named type can be two *types.Named values; signatures are compared
// as package-path-qualified strings, which agree across loads.
func implementsAny(d *declared, ifaces map[string]methodSigs) bool {
	mset := types.NewMethodSet(types.NewPointer(receiver(d.method)))
	have := make(methodSigs, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		fn := mset.At(i).Obj().(*types.Func)
		have[fn.Id()] = sigString(fn)
	}
	for _, sigs := range ifaces {
		if _, ok := sigs[d.method.Id()]; !ok {
			continue
		}
		all := true
		for id, sig := range sigs {
			all = all && have[id] == sig
		}
		if all {
			return true
		}
	}
	return false
}

// sigString renders fn's signature without its receiver or parameter
// names, with every named type qualified by its package path.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

//go:build ignore

// knobs is the test-only API gate. It type-checks the non-test code of
// internal/, cmd/, examples/ and the benchmark harness (benchmarks/e2e)
// and lists two kinds of exported name under internal/ that only tests
// reach, exiting 1 if one is not in the allow list:
//
//	go run scripts/knobs.go scripts/knobs_allow.txt
//
// "pkg.Config.Field" is a field of a `Config` struct that no non-test
// code outside the struct's package sets: an option whose only value in
// use is the default, which should be a constant. A field counts as set
// when a keyed composite literal of the Config names it, when an
// unkeyed one exists, or when it is assigned to.
//
// "pkg.Func" or "pkg.Type.Method" is an exported function or method
// that no non-test code uses, its own body aside, which should be
// deleted. A use in its own package counts; a method of a generic type
// is used when any instance's is; and a method that implements an
// interface (String, Error, MarshalJSON, ServeHTTP, cloud.Interface,
// ...) counts as used.
//
// The allow list holds one `name reason` line per deliberate exception;
// blank lines and lines starting with # are skipped. A name ending in
// ".*" allows every reported name it prefixes ("cloudsim.*"). An entry
// that matches nothing either rule reports is reported too, so the
// list cannot go stale.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "unidrive"

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/knobs.go <allow-list>")
		os.Exit(2)
	}
	allowed, err := readAllow(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "knobs:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	pkgs, err := load(fset, "internal", "cmd", "examples", "benchmarks/e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "knobs:", err)
		os.Exit(2)
	}

	bad := false
	matched := map[string]bool{}
	report := func(names []string, why string) {
		for _, name := range names {
			if entry, ok := allows(allowed, name); ok {
				matched[entry] = true
				continue
			}
			fmt.Printf("%s: %s, or list it in %s with the reason\n", name, why, os.Args[1])
			bad = true
		}
	}
	report(unsetFields(pkgs), "set by tests only; make it a constant")
	report(unusedFuncs(pkgs), "called by tests only; delete it")
	for entry := range allowed {
		if !matched[entry] {
			fmt.Printf("%s: listed in %s, but matches no unset field or unused function\n", entry, os.Args[1])
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// allows returns the allow-list entry that covers name: name itself,
// or a "pkg.*" entry whose prefix it has.
func allows(allowed map[string]string, name string) (string, bool) {
	if _, ok := allowed[name]; ok {
		return name, true
	}
	for entry := range allowed {
		if prefix, ok := strings.CutSuffix(entry, "*"); ok && strings.HasPrefix(name, prefix) {
			return entry, true
		}
	}
	return "", false
}

// internalPkgs are the loaded packages under internal/.
func internalPkgs(pkgs map[string]*pkg) []*pkg {
	var out []*pkg
	for _, p := range pkgs {
		if strings.HasPrefix(p.path, module+"/internal/") {
			out = append(out, p)
		}
	}
	return out
}

// unsetFields names the exported Config fields under internal/ that no
// code outside their package sets ("pkg.Config.Field"), sorted.
func unsetFields(pkgs map[string]*pkg) []string {
	fields := map[*types.Var]string{}
	for _, p := range internalPkgs(pkgs) {
		obj, ok := p.types.Scope().Lookup("Config").(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = p.types.Name() + ".Config." + f.Name()
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				for _, f := range setFields(p, n) {
					if _, ok := fields[f]; ok && f.Pkg() != p.types {
						set[f] = true
					}
				}
				return true
			})
		}
	}
	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return unset
}

// unusedFuncs names the exported functions and methods declared under
// internal/ that no code uses outside their own body ("pkg.Func",
// "pkg.Type.Method"), sorted. Methods that implement an interface are
// left out: their caller is whoever holds the interface.
func unusedFuncs(pkgs map[string]*pkg) []string {
	ifaces := interfaces(pkgs)
	funcs := map[*types.Func]string{}
	for _, p := range internalPkgs(pkgs) {
		for _, file := range p.files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := p.types.Name() + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := baseNamed(recv.Type())
					if implementsAny(named, fn.Name(), ifaces) {
						continue
					}
					name = p.types.Name() + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				funcs[fn] = name
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, d := range file.Decls {
				var in *types.Func // the function d declares: its own uses are recursion
				if fd, ok := d.(*ast.FuncDecl); ok {
					in = p.info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != in {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	var unused []string
	for fn, name := range funcs {
		if !used[fn] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused
}

// baseNamed is the named type of a method receiver, pointer or not.
func baseNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// implementsAny reports whether named or *named implements one of
// ifaces that has a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false // its methods are used through their instances
	}
	for _, it := range ifaces {
		if has(it, method) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// has reports whether it has a method called method.
func has(it *types.Interface, method string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == method {
			return true
		}
	}
	return false
}

// interfaces are the non-empty interface types declared in the loaded
// packages and everything they import, written inline included.
func interfaces(pkgs map[string]*pkg) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// setFields returns the struct fields node sets: the keys of a keyed
// composite literal, every field of an unkeyed one, or the field an
// assignment or increment writes.
func setFields(p *pkg, n ast.Node) []*types.Var {
	var out []*types.Var
	switch n := n.(type) {
	case *ast.CompositeLit:
		st, ok := p.info.TypeOf(n).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		for i, elt := range n.Elts {
			kv, keyed := elt.(*ast.KeyValueExpr)
			if !keyed {
				out = append(out, st.Field(i))
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				if f, ok := p.info.ObjectOf(id).(*types.Var); ok {
					out = append(out, f)
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			out = append(out, selected(p, lhs)...)
		}
	case *ast.IncDecStmt:
		out = selected(p, n.X)
	}
	return out
}

// selected is the field x selects, if it is a field selection.
func selected(p *pkg, x ast.Expr) []*types.Var {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return []*types.Var{s.Obj().(*types.Var)}
	}
	return nil
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// load parses and type-checks the non-test Go files of the module's
// packages under dirs. Module packages are checked from these files,
// in dependency order; the standard library comes from source.
func load(fset *token.FileSet, dirs ...string) (map[string]*pkg, error) {
	pkgs := map[string]*pkg{}
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if match, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !match {
				return err // not in the default build: another OS, a tag, or go:build ignore
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ip := module + "/" + filepath.ToSlash(filepath.Dir(path))
			if pkgs[ip] == nil {
				pkgs[ip] = &pkg{path: ip}
			}
			pkgs[ip].files = append(pkgs[ip].files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	imp := &moduleImporter{pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil), fset: fset}
	for ip := range pkgs {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

type moduleImporter struct {
	pkgs map[string]*pkg
	std  types.Importer
	fset *token.FileSet
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// readAllow reads the allow list: "name reason" per line.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s: %q has no reason", path, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

//go:build ignore

// knobs lists the exported fields of every `Config` struct under
// internal/ that no non-test code outside the struct's own package ever
// sets — options whose only value in use is the default, which should
// be constants — and exits 1 if one is not in the allow list:
//
//	go run scripts/knobs.go scripts/knobs_allow.txt
//
// A field counts as set when a keyed composite literal of the Config
// names it, when an unkeyed one exists, or when it is assigned to, in a
// non-test file of internal/, cmd/, examples/ or the benchmark harness
// (benchmarks/e2e) outside its package.
// The allow list holds one `pkg.Config.Field reason` line per deliberate
// exception; blank lines and lines starting with # are skipped. An
// entry that names no unset field is reported too, so the list cannot
// go stale.
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

	// fields are the exported Config fields by name ("pkg.Config.Field");
	// set marks the ones set from outside their package.
	fields := map[*types.Var]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, module+"/internal/") {
			continue
		}
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
	bad := false
	for _, name := range unset {
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
			continue
		}
		fmt.Printf("%s: set by tests only; make it a constant, or list it in %s with the reason\n", name, os.Args[1])
		bad = true
	}
	for name := range allowed {
		fmt.Printf("%s: listed in %s, but no such unset field\n", name, os.Args[1])
		bad = true
	}
	if bad {
		os.Exit(1)
	}
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

// readAllow reads the allow list: "pkg.Config.Field reason" per line.
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

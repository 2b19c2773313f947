// Command deadcode lists the exported functions, methods and types of
// this module that no run reaches, and fails if any of them is not
// named in scripts/deadcode.allow.
//
// Run it from the module root:
//
//	go run ./scripts/deadcode
//
// A declaration is reached when a chain of references leads to it from
// the main or init function of a main package (cmd/, examples/,
// benchmark/, scripts/). Only non-test files are read, so code that
// only tests call counts as dead. A method is also reached when its
// type is reached and the method satisfies an interface method that is
// reached (or any interface of an imported standard-library package),
// because a call through the interface may land on it.
//
// Each dead declaration prints as its package directory, relative to
// the module root, then its name: internal/pkg.Func, internal/pkg.Type.Method.
// Each line of the allow file is an entry and its reason:
//
//	internal/gpusched  paper-validation simulator that only tests drive
//
// An entry covers the declaration it names and everything below it (a
// package covers its declarations, a type its methods). The command
// exits 1 when a dead declaration is not covered, when an entry has no
// reason, and when an entry covers nothing (it is stale: the
// declaration was deleted or gained a caller).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(".", filepath.Join("scripts", "deadcode.allow"), os.Stdout, os.Stderr))
}

// run checks the module at root against the allow file and returns the
// exit status.
func run(root, allowPath string, stdout, stderr io.Writer) int {
	dead, err := find(root)
	if err != nil {
		fmt.Fprintln(stderr, "deadcode:", err)
		return 1
	}
	f, err := os.Open(allowPath)
	if err != nil {
		fmt.Fprintln(stderr, "deadcode:", err)
		return 1
	}
	defer f.Close()
	allow, err := readAllow(f)
	if err != nil {
		fmt.Fprintf(stderr, "deadcode: %s: %v\n", allowPath, err)
		return 1
	}
	unlisted, stale := compare(dead, allow)
	for _, d := range unlisted {
		fmt.Fprintln(stdout, d)
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "deadcode: %s: stale entry %s: it covers no dead declaration\n", allowPath, e)
	}
	if len(unlisted) > 0 {
		fmt.Fprintf(stderr, "deadcode: %d dead declaration(s) not in %s: delete them, or list each with a reason\n", len(unlisted), allowPath)
	}
	if len(unlisted) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

// readAllow parses the allow file: one "entry reason..." per line;
// blank lines and lines starting with # are skipped.
func readAllow(r io.Reader) ([]string, error) {
	var entries []string
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: entry %s has no reason", n, fields[0])
		}
		entries = append(entries, fields[0])
	}
	return entries, sc.Err()
}

// compare returns the dead declarations no entry covers and the entries
// that cover no dead declaration.
func compare(dead, allow []string) (unlisted, stale []string) {
	used := make(map[string]bool)
	for _, d := range dead {
		covered := false
		for _, e := range allow {
			if d == e || strings.HasPrefix(d, e+".") {
				used[e], covered = true, true
			}
		}
		if !covered {
			unlisted = append(unlisted, d)
		}
	}
	for _, e := range allow {
		if !used[e] {
			stale = append(stale, e)
		}
	}
	return unlisted, stale
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// program is the module's non-test code, type-checked.
type program struct {
	root    string // module path
	pkgs    []*types.Package
	files   map[*types.Package][]*ast.File
	info    *types.Info
	decls   map[types.Object]ast.Node // package-level declaration of each object
	foreign []*types.Interface        // interfaces of imported non-module packages
}

// load type-checks every package of the module at dir from its non-test
// files; imports from outside the module come from compiler export data.
func load(dir string) (*program, error) {
	cmd := exec.Command("go", "list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Module,Error", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	prog := &program{
		files: make(map[*types.Package][]*ast.File),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
		decls: make(map[types.Object]ast.Node),
	}
	// go list -deps prints each package after its dependencies.
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main {
			continue
		}
		prog.root = p.Module.Path
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tp, err := conf.Check(p.ImportPath, fset, files, prog.info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		prog.pkgs = append(prog.pkgs, tp)
		prog.files[tp] = files
	}
	prog.indexDecls()
	prog.foreign = foreignInterfaces(prog.pkgs, checked)
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// indexDecls maps each package-level object to the syntax that declares
// it: a function's FuncDecl, a type's TypeSpec, a var's or const's
// ValueSpec.
func (p *program) indexDecls() {
	for _, files := range p.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := p.info.Defs[d.Name]; obj != nil {
						p.decls[obj] = d
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							p.decls[p.info.Defs[s.Name]] = s
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.decls[p.info.Defs[n]] = s
							}
						}
					}
				}
			}
		}
	}
}

// foreignInterfaces returns the interface types declared by the non-module
// packages the module imports, directly or not, and error.
func foreignInterfaces(pkgs []*types.Package, module map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if module[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ifaces
}

// anonymous are the methods the standard library calls through interface
// types it never names: errors.Is, errors.As and errors.Unwrap assert
// interface{ Is(error) bool } and its kin.
var anonymous = map[string]bool{"Is": true, "As": true, "Unwrap": true}

// find returns the module's dead exported declarations, sorted.
func find(dir string) ([]string, error) {
	p, err := load(dir)
	if err != nil {
		return nil, err
	}
	live := p.reach()
	var dead []string
	for obj := range p.decls {
		if live[obj] || !obj.Exported() {
			continue
		}
		if _, ok := obj.(*types.Func); !ok {
			if _, ok := obj.(*types.TypeName); !ok {
				continue
			}
		}
		dead = append(dead, p.name(obj))
	}
	sort.Strings(dead)
	return dead, nil
}

// name renders obj as pkgdir.Name or pkgdir.Type.Method.
func (p *program) name(obj types.Object) string {
	dir := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), p.root), "/")
	if dir == "" {
		dir = "."
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return dir + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return dir + "." + obj.Name()
}

// reach marks every object reachable from the main and init functions
// of the module's main packages.
func (p *program) reach() map[types.Object]bool {
	live := make(map[types.Object]bool)
	var queue []ast.Node
	var ifaceMethods []*types.Func // live methods declared by interfaces
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a generic type's method, not its instance
		}
		if obj.Pkg() == nil || live[obj] {
			return
		}
		live[obj] = true
		if n := p.decls[obj]; n != nil {
			queue = append(queue, n)
		} else if fn, ok := obj.(*types.Func); ok && isInterfaceMethod(fn) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	for _, pkg := range p.pkgs {
		for _, f := range p.files[pkg] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main") {
					queue = append(queue, fd)
				}
			}
		}
	}
	for {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
		// A live type's method is live when a call through an interface
		// can reach it.
		for obj := range p.decls {
			tn, ok := obj.(*types.TypeName)
			if !ok || !live[tn] || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); !live[m] && p.dispatched(tn.Type(), m.Name(), ifaceMethods) {
					mark(m)
				}
			}
		}
		if len(queue) == 0 {
			return live
		}
	}
}

// dispatched reports whether a call through some interface can reach
// t's method called name.
func (p *program) dispatched(t types.Type, name string, ifaceMethods []*types.Func) bool {
	if anonymous[name] {
		return true
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	for _, im := range ifaceMethods {
		if im.Name() == name && implements(im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
			return true
		}
	}
	for _, it := range p.foreign {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && implements(it) {
				return true
			}
		}
	}
	return false
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

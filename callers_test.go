package vexus_test

import (
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
	"testing"
)

// callerExempt lists the internal functions and methods that need no
// caller in this tree, each with its reason. A bare method name stands
// for every method of that name: the standard library calls these
// through its interfaces, where the scan cannot see the call.
var callerExempt = map[string]string{
	"RoundTrip":     "http.RoundTripper: http.Client calls it",
	"MarshalJSON":   "json.Marshaler: encoding/json calls it",
	"UnmarshalJSON": "json.Unmarshaler: encoding/json calls it",
	"String":        "fmt.Stringer: fmt calls it",
}

// TestInternalFuncsHaveCallers keeps every function and method declared
// in a non-test file under internal/ reachable from a program or from
// another package's tests. It type-checks every package of the tree
// (the module, cmd/, examples/ and the wallbench module) from source,
// builds the graph of references between internal functions, and walks
// it from the roots: references from code outside internal/, from
// package-level initializers, and from test files of a package other
// than the referenced function's own. The examples count as roots like
// cmd/ because they are programs CI runs: its "Examples run" step runs
// each one and fails on a non-zero exit. A function that only its own
// package's tests reach is a test helper and belongs in a _test.go
// file; one that nothing reaches is dead.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	s := &callerScan{
		t:    t,
		fset: fset,
		// The standard library's positions go into the same file set,
		// so none of them can alias a position in the tree.
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  map[string]*callerPkg{},
		dirOf: map[*token.File]string{},
		funcs: map[*token.File][]*ast.FuncDecl{},
		decls: map[token.Pos]callerDecl{},
		edges: map[any][]any{},
	}
	s.walk(".")
	for _, p := range s.pkgs {
		s.check(p)
	}
	live := s.reach()

	var dead []string
	needed := map[string]bool{}
	for pos, d := range s.decls {
		switch {
		case live[pos]:
		case callerExempt[d.name] != "":
			needed[d.name] = true
		case d.method != "" && callerExempt[d.method] != "":
			needed[d.method] = true
		default:
			dead = append(dead, fmt.Sprintf("%s %s", s.fset.Position(pos), d.name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no caller outside its own package's tests: %s", d)
	}
	for name := range callerExempt {
		if !needed[name] {
			t.Errorf("exemption %q covers no function that lacks a caller: delete it", name)
		}
	}
	if len(s.decls) < 500 {
		t.Fatalf("scanned only %d internal functions: the walk missed packages", len(s.decls))
	}
}

// callerPkg is one directory's package.
type callerPkg struct {
	dir, path string
	imports   []string
	files     []*ast.File // non-test files
	tests     []*ast.File // in-package test files
	xtests    []*ast.File // external test files
	plain     *types.Package
	tested    *types.Package // files plus tests
}

// callerDecl is one function or method declared in a non-test file
// under internal/.
type callerDecl struct {
	name   string     // pkg.Func or pkg.Type.Method
	method string     // the bare method name, "" for a function
	recv   types.Type // the method's receiver type
}

type callerScan struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*callerPkg // by import path
	dirOf map[*token.File]string
	funcs map[*token.File][]*ast.FuncDecl // in source order
	decls map[token.Pos]callerDecl
	// A node of the reference graph is a declaration's token.Pos or an
	// interface method's *types.Func; edges[n] holds what n's body
	// references.
	edges map[any][]any
	roots []any
}

// walk parses every package under root, skipping what the go tool
// skips: testdata and directories starting with "." or "_".
func (s *callerScan) walk(root string) {
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &callerPkg{dir: filepath.ToSlash(dir), path: "vexus", imports: bp.Imports}
		if p.dir != "." {
			p.path += "/" + p.dir
		}
		p.files = s.parse(dir, bp.GoFiles)
		p.tests = s.parse(dir, bp.TestGoFiles)
		p.xtests = s.parse(dir, bp.XTestGoFiles)
		s.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		s.t.Fatal(err)
	}
}

func (s *callerScan) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		tf := s.fset.File(f.Pos())
		s.dirOf[tf] = filepath.ToSlash(dir)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				s.funcs[tf] = append(s.funcs[tf], fd)
			}
		}
		files = append(files, f)
	}
	return files
}

// callerImporter resolves the tree's own packages from source and the
// standard library from export data. Inside an external test it does
// what the go tool does: the package under test is its test variant,
// and every package that imports it is checked again against that
// variant.
type callerImporter struct {
	s       *callerScan
	tested  *callerPkg
	rebuilt map[string]*types.Package
}

func (im callerImporter) Import(path string) (*types.Package, error) {
	p, ok := im.s.pkgs[path]
	switch {
	case !ok:
		return im.s.std.Import(path)
	case im.tested == nil || !im.s.dependsOn(p, im.tested):
		return im.s.plain(p), nil
	case p == im.tested:
		return p.tested, nil
	}
	if im.rebuilt[path] == nil {
		im.rebuilt[path] = im.s.typeCheck(path, p.files, im, &types.Info{})
	}
	return im.rebuilt[path], nil
}

// dependsOn reports whether p is q or imports it, directly or not.
func (s *callerScan) dependsOn(p, q *callerPkg) bool {
	if p == q {
		return true
	}
	for _, path := range p.imports {
		if dep, ok := s.pkgs[path]; ok && s.dependsOn(dep, q) {
			return true
		}
	}
	return false
}

func (s *callerScan) typeCheck(path string, files []*ast.File, im callerImporter, info *types.Info) *types.Package {
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("type-check %s: %v", path, err)
	}
	return pkg
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

func (s *callerScan) plain(p *callerPkg) *types.Package {
	if p.plain == nil {
		info := newInfo()
		p.plain = s.typeCheck(p.path, p.files, callerImporter{s: s}, info)
		if internalDir(p.dir) {
			s.declare(info)
		}
		s.recordUses(info)
	}
	return p.plain
}

// check type-checks p and its tests, recording every reference.
func (s *callerScan) check(p *callerPkg) {
	s.plain(p)
	if len(p.tests) > 0 || len(p.xtests) > 0 {
		info := newInfo()
		files := append(append([]*ast.File{}, p.files...), p.tests...)
		p.tested = s.typeCheck(p.path, files, callerImporter{s: s}, info)
		for id := range info.Uses {
			if !isTestFile(s.fset.File(id.Pos())) {
				delete(info.Uses, id) // recorded by the plain check
			}
		}
		s.recordUses(info)
	}
	if len(p.xtests) > 0 {
		info := newInfo()
		s.typeCheck(p.path+"_test", p.xtests, callerImporter{s, p, map[string]*types.Package{}}, info)
		s.recordUses(info)
	}
}

func internalDir(dir string) bool {
	return dir == "internal" || strings.HasPrefix(dir, "internal/")
}

func isTestFile(f *token.File) bool {
	return strings.HasSuffix(f.Name(), "_test.go")
}

// declare notes the functions and methods an internal package declares.
func (s *callerScan) declare(info *types.Info) {
	for id, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || id.Name == "_" {
			continue
		}
		d := callerDecl{name: fn.Pkg().Name() + "." + fn.Name()}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				continue
			}
			d.method, d.recv = fn.Name(), recv.Type()
			base := recv.Type()
			if ptr, ok := base.(*types.Pointer); ok {
				base = ptr.Elem()
			}
			d.name = fn.Pkg().Name() + "." + base.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		if fn.Name() == "init" {
			s.roots = append(s.roots, fn.Pos())
		}
		s.decls[fn.Pos()] = d
	}
}

// recordUses turns each reference to an internal function, or to an
// interface method, into an edge from the enclosing internal function
// or into a root.
func (s *callerScan) recordUses(info *types.Info) {
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		var to any = fn
		if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
			to = fn.Pos()
			decl := s.fset.File(fn.Pos())
			if decl == nil || !internalDir(s.dirOf[decl]) {
				continue
			}
			if isTestFile(s.fset.File(id.Pos())) && s.dirOf[decl] == s.dirOf[s.fset.File(id.Pos())] {
				continue // its own package's tests
			}
		}
		if from := s.enclosing(id); from.IsValid() {
			s.edges[from] = append(s.edges[from], to)
		} else {
			s.roots = append(s.roots, to)
		}
	}
}

// enclosing returns the internal function whose declaration holds
// id, or token.NoPos when id is in a test file, in code outside
// internal/, or in a package-level initializer.
func (s *callerScan) enclosing(id *ast.Ident) token.Pos {
	tf := s.fset.File(id.Pos())
	if isTestFile(tf) || !internalDir(s.dirOf[tf]) {
		return token.NoPos
	}
	funcs := s.funcs[tf]
	i := sort.Search(len(funcs), func(i int) bool { return funcs[i].End() > id.Pos() })
	if i < len(funcs) && funcs[i].Pos() <= id.Pos() {
		return funcs[i].Name.Pos()
	}
	return token.NoPos
}

// reach returns the declarations reachable from the roots. Reaching an
// interface method reaches every method of that name whose receiver
// implements the interface.
func (s *callerScan) reach() map[token.Pos]bool {
	live := map[token.Pos]bool{}
	seen := map[any]bool{}
	stack := append([]any{}, s.roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		switch n := n.(type) {
		case token.Pos:
			live[n] = true
		case *types.Func:
			iface := n.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for pos, d := range s.decls {
				if d.method == n.Name() && implements(d.recv, iface) {
					stack = append(stack, pos)
				}
			}
		}
		stack = append(stack, s.edges[n]...)
	}
	return live
}

func implements(recv types.Type, iface *types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return true // generic: match by name alone
	}
	return types.Implements(types.NewPointer(recv), iface)
}

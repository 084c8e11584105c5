package bfbp_test

import (
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly names the top-level declarations outside bench/ that no
// non-test code references but that stay in production files, each with
// the reason it stays: only code that the tests of more than one package
// share. Code that one package's tests use belongs in that package's
// _test.go files. Keys are "pkg.Name" or "pkg.Type.Method", with pkg the
// import path below the module ("bfbp" for the root package). Naming a
// type keeps its methods too.
var testOnly = map[string]string{
	"internal/history.BitVec":    "the packed BF-GHR bit vector of the reference models in the history, bfghr, bftage, bfgehl and rs tests",
	"internal/history.FoldWords": "folds a BitVec for the reference models in the history, bfghr, bftage, bfgehl and rs tests",

	"internal/bfghr.GHR.Segmented":     "the bfghr, bftage and bfgehl tests compare the key map with a fold of the recency stack",
	"internal/rs.Stack.At":             "the rs and bfneural tests read the recency stack slot by slot",
	"internal/state.Enc.Data":          "the bst and rs tests edit and compare encoded sections",
	"internal/state.Snapshot.Sections": "the root, state, bftage, bfgehl and bfneural tests corrupt each section in turn",

	"internal/experiments.Table.Col":        "reads a figure's column in the experiments tests and the root shape tests",
	"internal/experiments.Table.RowByLabel": "reads a figure's row in the experiments tests and the root shape tests",
	"internal/experiments.WeightedCenter":   "the Fig. 12 shape check of the experiments tests and the root shape tests",
}

// TestNoTestOnlyCode type-checks every non-test package of the module,
// bench/ and examples/ included, and fails for each top-level func,
// method, type, var or const outside bench/ that no non-test code
// references and testOnly does not name. A method counts as reached when
// any interface of the module or of the standard library it imports
// declares a method of its name, since a call through that interface
// names no concrete method.
func TestNoTestOnlyCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := newLoader(t)
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() {
			l.dirs[importPath(path)] = path
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		if _, err := l.Import(path); err != nil && err != errNoGo {
			t.Fatal(err)
		}
	}

	// Interface method names, over every interface type the module's
	// code mentions and every package-level interface of the packages it
	// imports, the module's own included.
	ifaceNames := map[string]bool{"Error": true}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.checked {
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		walk(p.pkg)
	}

	// Every use of a package-level object or method, resolved to its
	// generic origin, except a use inside the object's own declaration or
	// in a method's receiver.
	used := map[types.Object]bool{}
	for _, p := range l.checked {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				own := map[types.Object]bool{}
				var recv *ast.FieldList
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own[p.info.Defs[d.Name]], recv = true, d.Recv
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							own[p.info.Defs[ts.Name]] = true
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FieldList); ok && fl == recv {
						return false
					}
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !own[obj] {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
	}

	var dead []token.Position
	why := map[token.Position]string{}
	for path, p := range l.checked {
		if path == "bfbp/bench" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, obj := range declared(p, decl) {
					name := obj.Name()
					if name == "_" || name == "main" || name == "init" {
						continue
					}
					key := strings.TrimPrefix(path, "bfbp/") + "."
					if recv := receiver(obj); recv != "" {
						if ifaceNames[name] {
							continue
						}
						if _, listed := testOnly[key+recv]; listed {
							continue // an allowlisted type keeps its methods
						}
						key += recv + "."
					}
					key += name
					_, listed := testOnly[key]
					switch {
					case used[obj] && listed:
						t.Errorf("testOnly names %s, which non-test code now references", key)
					case !used[obj] && !listed:
						pos := l.fset.Position(obj.Pos())
						pos.Filename, _ = filepath.Rel(l.root, pos.Filename)
						dead = append(dead, pos)
						why[pos] = key
					}
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].Filename != dead[j].Filename {
			return dead[i].Filename < dead[j].Filename
		}
		return dead[i].Line < dead[j].Line
	})
	for _, pos := range dead {
		t.Errorf("%s:%d: %s has no non-test reference", pos.Filename, pos.Line, why[pos])
	}
	for key, reason := range testOnly {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnly entry %s gives no reason", key)
		}
	}
}

// origin resolves an instantiated generic function, method or field to
// the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiver returns the name of a method's receiver type, or "" when obj
// is not a method.
func receiver(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return ""
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return rt.(*types.Named).Obj().Name()
}

// declared returns the package-level objects and methods a declaration
// introduces.
func declared(p *checkedPkg, decl ast.Decl) []types.Object {
	var objs []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		objs = append(objs, p.info.Defs[d.Name])
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				objs = append(objs, p.info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, id := range s.Names {
					objs = append(objs, p.info.Defs[id])
				}
			}
		}
	}
	return objs
}

var errNoGo = errors.New("no non-test Go files")

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the module's packages from source, in import
// order, and the standard library through one shared source importer.
type loader struct {
	root    string
	fset    *token.FileSet
	std     types.ImporterFrom
	dirs    map[string]string
	checked map[string]*checkedPkg
}

func newLoader(t *testing.T) *loader {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:    map[string]string{},
		checked: map[string]*checkedPkg{},
	}
}

// importPath maps a directory under the module root to its import path.
// bench/ is a module of its own, bfbp/bench, that requires this one.
func importPath(dir string) string {
	if dir == "." {
		return "bfbp"
	}
	return "bfbp/" + filepath.ToSlash(dir)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p.pkg, nil
	}
	src, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, src, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGo
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.checked[path] = &checkedPkg{pkg: pkg, files: files, info: info}
	return pkg, nil
}

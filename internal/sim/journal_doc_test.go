package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// eventSources is what the non-test Go of the module (bench/ excluded)
// says about the event schema.
type eventSources struct {
	// emitted holds the sim type names handed to an emit or Emit call:
	// a composite literal argument, or a variable bound by a type-switch
	// case or assigned a composite literal in the enclosing function.
	emitted map[string]bool
	// kindLiterals holds string literals passed as Emit's kind.
	kindLiterals map[string]bool
	// kindMethods holds the package-sim types declaring Kind() string.
	kindMethods map[string]bool
}

func scanEventSources(t *testing.T) eventSources {
	t.Helper()
	root := filepath.Join("..", "..")
	simDir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	src := eventSources{emitted: map[string]bool{}, kindLiterals: map[string]bool{}, kindMethods: map[string]bool{}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "bench", "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, err := filepath.Abs(filepath.Dir(path))
		if err != nil {
			return err
		}
		inSim := dir == simDir
		// simType names the package-sim type expression e denotes.
		simType := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				if inSim {
					return e.Name
				}
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "sim" {
					return e.Sel.Name
				}
			}
			return ""
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if inSim && ok && fn.Recv != nil && fn.Name.Name == "Kind" &&
				fn.Type.Results != nil && len(fn.Type.Results.List) == 1 {
				if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && res.Name == "string" {
					src.kindMethods[simType(fn.Recv.List[0].Type)] = true
				}
			}
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "emit" && sel.Sel.Name != "Emit") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && sel.Sel.Name == "Emit" && lit.Kind == token.STRING {
				if k, err := strconv.Unquote(lit.Value); err == nil {
					src.kindLiterals[k] = true
				}
			}
			if name := simType(resolveType(call.Args[len(call.Args)-1], stack)); name != "" {
				src.emitted[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// resolveType returns the type expression of an emitted argument: a
// composite literal's type, or for a variable the type its innermost
// type-switch case binds or the composite literal the enclosing
// function assigns it. It returns nil when neither applies (such as
// Engine.emit forwarding its Event parameter).
func resolveType(arg ast.Expr, stack []ast.Node) ast.Expr {
	if lit, ok := arg.(*ast.CompositeLit); ok {
		return lit.Type
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	for i := len(stack) - 1; i > 0; i-- {
		switch n := stack[i].(type) {
		case *ast.CaseClause:
			if i < 2 || len(n.List) != 1 {
				continue
			}
			ts, ok := stack[i-2].(*ast.TypeSwitchStmt)
			if !ok {
				continue
			}
			if as, ok := ts.Assign.(*ast.AssignStmt); ok {
				if lhs, ok := as.Lhs[0].(*ast.Ident); ok && lhs.Name == id.Name {
					return n.List[0]
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			var found ast.Expr
			ast.Inspect(n, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || found != nil {
					return found == nil
				}
				for j, lhs := range as.Lhs {
					if l, ok := lhs.(*ast.Ident); ok && l.Name == id.Name && j < len(as.Rhs) {
						if lit, ok := as.Rhs[j].(*ast.CompositeLit); ok {
							found = lit.Type
						}
					}
				}
				return true
			})
			return found
		}
	}
	return nil
}

// Events() is the journal schema. This guard fails when a kind is
// listed twice; when an event type is never handed to an emit or Emit
// call by non-test code; when a type declaring Kind() string, an
// emitted type or an Emit kind literal is missing from Events(); or
// when the DESIGN.md schema table misses a kind.
func TestJournalKindsMatchDocs(t *testing.T) {
	published := map[string]bool{}
	listed := map[string]bool{}
	for _, ev := range Events() {
		k := ev.Kind()
		if published[k] {
			t.Fatalf("Events lists kind %q twice", k)
		}
		published[k] = true
		listed[reflect.TypeOf(ev).Name()] = true
	}

	src := scanEventSources(t)
	if len(src.emitted) == 0 || len(src.kindMethods) == 0 {
		t.Fatal("found no emit call sites or Kind methods — walk or layout drifted")
	}
	for _, ev := range Events() {
		if name := reflect.TypeOf(ev).Name(); !src.emitted[name] {
			t.Errorf("Events lists %s (kind %q) but no non-test emit call site produces it", name, ev.Kind())
		}
	}
	for name := range src.kindMethods {
		if !listed[name] {
			t.Errorf("type %s declares Kind() but is missing from Events()", name)
		}
	}
	for name := range src.emitted {
		if !listed[name] {
			t.Errorf("emit call site hands %s, which is missing from Events()", name)
		}
	}
	for k := range src.kindLiterals {
		if !published[k] {
			t.Errorf("Emit call site uses kind %q missing from Events()", k)
		}
	}

	// Every published kind must appear backticked in DESIGN.md.
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range published {
		if !strings.Contains(string(doc), "`"+k+"`") {
			t.Errorf("DESIGN.md schema table missing `%s`", k)
		}
	}

	// DESIGN.md must also document the trace correlation contract: the
	// bfbp.trace.v1 export format and the journal's span field.
	for _, frag := range []string{"`bfbp.trace.v1`", "`span`"} {
		if !strings.Contains(string(doc), frag) {
			t.Errorf("DESIGN.md missing %s (trace/journal correlation contract)", frag)
		}
	}
}

// Every event the engine emits must carry the optional span tag, so any
// journal record can be joined to its bfbp.trace.v1 timeline slice. A
// new event type that forgets the field breaks the correlation contract
// silently — this guard makes it loud. Checkpoint is the one exception:
// bfsim journals it outside any span, and it must not grow a field that
// nothing sets.
func TestJournalPayloadsCarrySpanTag(t *testing.T) {
	for _, ev := range Events() {
		kind, typ := ev.Kind(), reflect.TypeOf(ev)
		field, ok := typ.FieldByName("Span")
		if _, isCheckpoint := ev.(Checkpoint); isCheckpoint {
			if ok {
				t.Errorf("%s event %s has a Span field, which no emitter sets", kind, typ.Name())
			}
			continue
		}
		if !ok {
			t.Errorf("%s event %s has no Span field", kind, typ.Name())
			continue
		}
		if tag := field.Tag.Get("json"); tag != "span,omitempty" {
			t.Errorf("%s event %s.Span json tag = %q, want \"span,omitempty\"", kind, typ.Name(), tag)
		}
		if field.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s event %s.Span is %s, want uint64", kind, typ.Name(), field.Type)
		}
	}
}

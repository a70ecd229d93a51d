package chash

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCountsGoThroughTheHelper walks the module's non-test Go files and
// fails on any make whose length or capacity derives, within one function,
// from a raw Uint32() or Uint64() decoder read. An untrusted count sizes an
// allocation only after Decoder.Count or Count64 has bounded it.
func TestCountsGoThroughTheHelper(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	files := 0
	var bad []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == root {
				return nil
			}
			name := e.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
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
		files++
		for _, pos := range unboundedMakes(f) {
			bad = append(bad, fset.Position(pos).String())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", root, err)
	}
	if files < 50 {
		t.Fatalf("walked %d Go files under %s, want the whole module", files, root)
	}
	for _, b := range bad {
		t.Errorf("%s: make sized by a raw decoder count; read it with Decoder.Count or Count64", b)
	}
}

// TestCountGuardFlagsRawCounts: the guard's own check, on a decoder that
// sizes from a raw count (directly, through a conversion, and through min)
// and on one that reads through the helper.
func TestCountGuardFlagsRawCounts(t *testing.T) {
	const src = `package p
func raw(d *Decoder) {
	count, _ := d.Uint32()
	_ = make([]Entry, 0, count)
	n := int(count)
	_ = make([]Entry, min(n, 64))
	m, _ := d.Uint64()
	_ = make(map[string]int, m)
}
func helper(d *Decoder, b []byte) {
	count, _ := d.Count(1<<20, 12)
	_ = make([]Entry, 0, count)
	k, _ := d.Uint32()
	_ = k
	_ = make([]byte, len(b))
}`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(unboundedMakes(f)); got != 3 {
		t.Fatalf("guard flagged %d makes, want the 3 sized by raw counts", got)
	}
}

// moduleRoot finds the directory holding this module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module dcert\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// unboundedMakes returns the positions of the makes in f whose length or
// capacity derives from a raw Uint32() or Uint64() read in the same
// function. Derivation follows assignments by name; len and cap of a value
// do not carry it (they are bounded by bytes already held).
func unboundedMakes(f *ast.File) []token.Pos {
	var out []token.Pos
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		tainted := make(map[string]bool)
		derived := func(e ast.Expr) bool {
			found := false
			ast.Inspect(e, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
						return false
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) == 0 &&
						(sel.Sel.Name == "Uint32" || sel.Sel.Name == "Uint64") {
						found = true
					}
				case *ast.Ident, *ast.SelectorExpr:
					if tainted[types.ExprString(n.(ast.Expr))] {
						found = true
					}
				}
				return !found
			})
			return found
		}
		for changed := true; changed; {
			changed = false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var lhs, rhs []ast.Expr
				switch s := n.(type) {
				case *ast.AssignStmt:
					lhs, rhs = s.Lhs, s.Rhs
				case *ast.ValueSpec:
					for _, id := range s.Names {
						lhs = append(lhs, id)
					}
					rhs = s.Values
				default:
					return true
				}
				for i, l := range lhs {
					var r ast.Expr
					switch len(rhs) {
					case len(lhs):
						r = rhs[i]
					case 1:
						r = rhs[0] // a, b := f()
					default:
						return true
					}
					if key := types.ExprString(l); key != "_" && !tainted[key] && derived(r) {
						tainted[key], changed = true, true
					}
				}
				return true
			})
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
				for _, arg := range call.Args[1:] {
					if derived(arg) {
						out = append(out, call.Pos())
						break
					}
				}
			}
			return true
		})
	}
	return out
}

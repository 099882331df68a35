package defined_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stdInterfaceMethods are methods the standard library calls through an
// interface (fmt, encoding/json, encoding, errors, sort, container/heap), so
// no file of the program names them at a call site.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyExports keeps code that only tests use out of the shipped
// packages. It parses every non-test Go file under the repository (bench/
// included, testdata/ and .bench_build/ not) and fails on each exported
// function or method, declared outside cmd/, examples/ and bench/, whose
// name no non-test file mentions anywhere but in its own declaration.
//
// Such a function goes: deleted when no test needs it, or moved into the
// _test.go files of the one package whose tests use it (the root package's
// external tests reach theirs through export_test.go). One that several
// packages' tests share stays, with a doc line that starts "Test support:".
// Also exempt: methods the standard library calls through an interface
// (UnmarshalJSON, String, ...), and root-package functions the package doc
// names, which are the module's user API.
//
// The check matches by name only, so a function escapes it when any other
// identifier, in any package, has the same name: a method named like one
// that is called elsewhere (as Network.PoolViolations was, beside
// netsim.Sim.PoolViolations) is not caught.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct {
		name, where string
		root        bool // declared in the root package
	}
	var decls []decl
	var rootDoc string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if filepath.Dir(path) == "." && f.Doc != nil {
			rootDoc += f.Doc.Text()
		}
		checked := !strings.HasPrefix(path, "cmd/") && !strings.HasPrefix(path, "examples/") && !strings.HasPrefix(path, "bench/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !checked || !fd.Name.IsExported() || testSupport(fd.Doc) ||
				(fd.Recv != nil && stdInterfaceMethods[fd.Name.Name]) {
				continue
			}
			decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Name.Pos()).String(), filepath.Dir(path) == "."})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("only %d exported functions found: the walk missed the packages", len(decls))
	}
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		if d.root && regexp.MustCompile(`\b`+d.name+`\b`).MatchString(rootDoc) {
			continue // the root package's documented user API
		}
		t.Errorf("%s: %s is used only by tests: delete it, move it into that package's _test.go, "+
			"or mark it \"Test support:\" if several packages' tests share it", d.where, d.name)
	}
}

// testSupport reports whether a doc comment has a line that starts with
// "Test support:".
func testSupport(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Test support:") {
			return true
		}
	}
	return false
}

package foresight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test, fuzz and benchmark names
// TestDocsCiteDeclaredTests holds to the tree.
var citedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

// citedName matches a cited Test…, Fuzz… or Benchmark… name; a
// trailing * makes it a prefix.
var citedName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*\*?`)

// TestDocsCiteDeclaredTests fails when DESIGN.md, EXPERIMENTS.md or
// README.md cites a test, fuzz target or benchmark that no _test.go
// file of the repository — the benchmark module's included — declares.
// A citation ending in * names every function it is a prefix of, and
// holds when there is at least one.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declares := func(cite string) bool {
		prefix, ok := strings.CutSuffix(cite, "*")
		if !ok {
			return declared[cite]
		}
		for name := range declared {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, cite := range citedName.FindAllString(line, -1) {
				if !declares(cite) {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, cite)
				}
			}
		}
	}
}

package foresight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// designCiters are the documents whose DESIGN.md citations
// TestDesignCitationsResolve holds to its headings, beside every .go
// file outside the benchmark module.
var designCiters = []string{"README.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// designCite matches a citation of DESIGN.md's sections — "DESIGN §7.3"
// or "DESIGN.md §8.4, §8.6", a line break and a comment marker allowed
// wherever a space is — and designSection each section it names. A
// section is taken whole, letters included, so that one DESIGN.md does
// not number does not pass for the number it starts with.
var (
	designCite    = regexp.MustCompile(`\bDESIGN(?:\.md)?(?:\s|//)*(§[0-9]\w*(?:\.\w+)*(?:(?:\s|//)*(?:,|and|/)(?:\s|//)*§[0-9]\w*(?:\.\w+)*)*)`)
	designSection = regexp.MustCompile(`§([0-9]\w*(?:\.\w+)*)`)
	designHeading = regexp.MustCompile(`^#{2,} ([0-9]+(?:\.[0-9]+)*)\.? `)
)

// TestDesignCitationsResolve fails when a .go file outside the benchmark
// module, README.md, EXPERIMENTS.md or the verify skill cites a section
// of DESIGN.md ("DESIGN §7.3", "DESIGN.md §8.4, §8.6") that no heading of
// DESIGN.md numbers.
func TestDesignCitationsResolve(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if m := designHeading.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
		}
	}
	files := slices.Clone(designCiters)
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range designCite.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:m[0]], "\n")
			for _, sec := range designSection.FindAllStringSubmatch(text[m[2]:m[3]], -1) {
				cited++
				if !sections[sec[1]] {
					t.Errorf("%s:%d cites DESIGN §%s, which no heading of DESIGN.md numbers", name, line, sec[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no DESIGN citation found: the pattern no longer matches how the tree cites DESIGN.md")
	}
}

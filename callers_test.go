package foresight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// shippedTestSupport lists the exported package-level names under
// internal/ that ship in non-test files for the tests of other packages
// or for the benchmark's in-process layers, so that no production file
// names them. Each entry says why it stays.
var shippedTestSupport = map[string]string{
	"foresight/internal/durable.NewErrFS":           "the fault-injecting filesystem of the crash tests of durable and server",
	"foresight/internal/frame.MustNew":              "builds the literal frames of the tests of nine packages",
	"foresight/internal/sketch.BuildProfileSharded": "deprecated alias benchmark/layers still calls (ROADMAP 16)",
	"foresight/internal/stats.Pearson":              "the pair kernel benchmark/layers times (ROADMAP 16)",
	"foresight/internal/stats.Spearman":             "the pair kernel benchmark/layers times (ROADMAP 16)",
}

// TestEveryExportHasAProductionCaller holds the tree to code that
// something ships: every exported package-level func, type, var and
// const declared in a non-test file under internal/ is in use. A name
// is in use when a non-test file other than the one declaring it names
// it — in its own package, another internal package, a command, an
// example or the facade — or when a declaration of its own file that is
// itself in use names it: a method, an unexported declaration (unused
// ones are staticcheck's to find) or an exported one in use. The
// benchmark module does not count as a caller, and methods are not
// checked. A name only tests call belongs in a _test.go file, or goes.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	// node is one top-level declaration of a non-test file: the exported
	// names it declares under internal/ (none for a method or an
	// unexported declaration, which count as in use) and the identifiers
	// it names.
	type node struct {
		exported []string
		names    map[string]bool
	}
	type file struct {
		path, pkg string
		nodes     []node
	}
	var files []file
	// foreign holds "importpath.Name" for every name a non-test file
	// other than its declaring one names: through an import, or, for
	// names of its own package, as a bare identifier.
	foreign := map[string]map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fl := file{path: p, pkg: path.Join("foresight", filepath.ToSlash(filepath.Dir(p)))}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		refer := func(pkg, name string) {
			key := pkg + "." + name
			if foreign[key] == nil {
				foreign[key] = map[string]bool{}
			}
			foreign[key][p] = true
		}
		// names collects what n names: a selector on an import names
		// that package's export, any other identifier possibly one of
		// this package's own.
		names := func(n ast.Node) map[string]bool {
			out := map[string]bool{}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							refer(ip, n.Sel.Name)
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					out[n.Name] = true
					refer(fl.pkg, n.Name)
				}
				return true
			}
			ast.Inspect(n, visit)
			return out
		}
		internal := strings.HasPrefix(p, "internal"+string(filepath.Separator))
		exported := func(ids ...*ast.Ident) []string {
			var out []string
			for _, id := range ids {
				if internal && id.IsExported() {
					out = append(out, id.Name)
				}
			}
			return out
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				// A method's receiver does not put its type in use.
				nd := node{names: names(dl.Type)}
				if dl.Body != nil {
					maps.Copy(nd.names, names(dl.Body))
				}
				if dl.Recv == nil {
					nd.exported = exported(dl.Name)
				}
				fl.nodes = append(fl.nodes, nd)
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					nd := node{names: names(sp)}
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						nd.exported = exported(sp.Name)
					case *ast.ValueSpec:
						nd.exported = exported(sp.Names...)
					}
					fl.nodes = append(fl.nodes, nd)
				}
			}
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for _, fl := range files {
		inUse := map[string]bool{}
		declared := map[string]bool{}
		for _, nd := range fl.nodes {
			for _, name := range nd.exported {
				declared[name] = true
				for other := range foreign[fl.pkg+"."+name] {
					if other != fl.path {
						inUse[name] = true
					}
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, nd := range fl.nodes {
				live := len(nd.exported) == 0
				for _, name := range nd.exported {
					live = live || inUse[name]
				}
				if !live {
					continue
				}
				for name := range nd.names {
					if declared[name] && !inUse[name] && !slices.Contains(nd.exported, name) {
						inUse[name], changed = true, true
					}
				}
			}
		}
		for name := range declared {
			key := fl.pkg + "." + name
			if _, ok := shippedTestSupport[key]; ok {
				if inUse[name] {
					t.Errorf("shippedTestSupport lists %s, which has a production caller", key)
				}
				continue
			}
			if !inUse[name] {
				dead = append(dead, key+" ("+fl.path+")")
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names have no production caller; delete them, move them into a _test.go file, or list them in shippedTestSupport with the reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

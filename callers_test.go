package foresight_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// shippedTestSupport lists the exported package-level names and
// methods under internal/ that ship in non-test files for the tests of
// other packages or for the benchmark's in-process layers, so that no
// production file names them. A method is listed as
// "importpath.Type.Method", every method of a type as
// "importpath.Type.*". Each entry says why it stays.
var shippedTestSupport = map[string]string{
	"foresight/internal/durable.NewErrFS":             "the fault-injecting filesystem of the crash tests of durable and server",
	"foresight/internal/durable.ErrFS.*":              "the crash and fault hooks those tests arm on it",
	"foresight/internal/durable.Manager.Checkpoint":   "the forced checkpoint benchmark/layers times (ROADMAP 16)",
	"foresight/internal/frame.MustNew":                "builds the literal frames of the tests of nine packages",
	"foresight/internal/query.Engine.InvalidateCache": "deprecated call benchmark/layers still makes (ROADMAP 16)",
	"foresight/internal/sketch.BuildProfileSharded":   "deprecated alias benchmark/layers still calls (ROADMAP 16)",
	"foresight/internal/stats.Pearson":                "the pair kernel benchmark/layers times (ROADMAP 16)",
	"foresight/internal/stats.Spearman":               "the pair kernel benchmark/layers times (ROADMAP 16)",
}

// implicitInterfaces are the methods of the standard library's
// interfaces that the tree satisfies without selecting the method
// anywhere: sort.Sort calls Len, Less and Swap.
var implicitInterfaces = []string{"Len", "Less", "Swap"}

// TestEveryExportHasAProductionCaller holds the tree to code that
// something ships: every exported package-level func, type, var and
// const, and every exported method, declared in a non-test file under
// internal/ is in use. A package-level name is in use when a non-test
// file other than the one declaring it names it — in its own package,
// another internal package, a command, an example or the facade. A
// method is in use when a non-test file other than its own selects its
// name (x.Name for any x but an import: the check reads syntax, not
// types), or when an interface declared in a non-test file, or one of
// implicitInterfaces, declares it. Either is also in use when a
// declaration of its own file that is itself in use names it: an
// unexported declaration (unused ones are staticcheck's to find), an
// unexported method, or an exported name or method in use. The
// benchmark module does not count as a caller. A name or method only
// tests call belongs in a _test.go file, or goes.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	// node is one top-level declaration of a non-test file: the exported
	// names it declares under internal/, or the exported method it
	// declares there as "Type.Method" (neither for an unexported
	// declaration or method, which count as in use), the identifiers it
	// names and the names it selects.
	type node struct {
		exported       []string
		method         string
		names, selects map[string]bool
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
	// selected holds, for each name selected as x.Name with x not an
	// import, the non-test files that select it.
	selected := map[string]map[string]bool{}
	// declaredByInterface holds every method name an interface declares.
	declaredByInterface := map[string]bool{}
	for _, name := range implicitInterfaces {
		declaredByInterface[name] = true
	}
	mark := func(m map[string]map[string]bool, key, p string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][p] = true
	}

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
		// visit collects what n names into nd: a selector on an import
		// names that package's export, any other selector selects a
		// field or method, and any other identifier possibly names one
		// of this package's own declarations.
		visit := func(nd *node, n ast.Node) {
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							mark(foreign, ip+"."+n.Sel.Name, p)
							return false
						}
					}
					nd.selects[n.Sel.Name] = true
					mark(selected, n.Sel.Name, p)
					ast.Inspect(n.X, visit)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							declaredByInterface[id.Name] = true
						}
					}
				case *ast.Ident:
					nd.names[n.Name] = true
					mark(foreign, fl.pkg+"."+n.Name, p)
				}
				return true
			}
			ast.Inspect(n, visit)
		}
		newNode := func() node { return node{names: map[string]bool{}, selects: map[string]bool{}} }
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
				nd := newNode()
				visit(&nd, dl.Type)
				if dl.Body != nil {
					visit(&nd, dl.Body)
				}
				if dl.Recv == nil {
					nd.exported = exported(dl.Name)
				} else if internal && dl.Name.IsExported() {
					recv := dl.Recv.List[0].Type
					for {
						switch r := recv.(type) {
						case *ast.StarExpr:
							recv = r.X
							continue
						case *ast.IndexExpr:
							recv = r.X
							continue
						case *ast.IndexListExpr:
							recv = r.X
							continue
						}
						break
					}
					nd.method = recv.(*ast.Ident).Name + "." + dl.Name.Name
				}
				fl.nodes = append(fl.nodes, nd)
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					nd := newNode()
					visit(&nd, sp)
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
	needed := map[string]bool{}
	for _, fl := range files {
		// inUse and declared hold the file's exported names and its
		// methods ("Type.Method"); methods maps a method name to the
		// methods of that name the file declares.
		inUse := map[string]bool{}
		declared := map[string]bool{}
		methods := map[string][]string{}
		elsewhere := func(files map[string]bool) bool {
			for other := range files {
				if other != fl.path {
					return true
				}
			}
			return false
		}
		for _, nd := range fl.nodes {
			for _, name := range nd.exported {
				declared[name] = true
				inUse[name] = elsewhere(foreign[fl.pkg+"."+name])
			}
			if nd.method != "" {
				name := nd.method[strings.IndexByte(nd.method, '.')+1:]
				methods[name] = append(methods[name], nd.method)
				declared[nd.method] = true
				inUse[nd.method] = declaredByInterface[name] || elsewhere(selected[name])
			}
		}
		for changed := true; changed; {
			changed = false
			use := func(key string) {
				if !inUse[key] {
					inUse[key], changed = true, true
				}
			}
			for _, nd := range fl.nodes {
				live := len(nd.exported) == 0 && nd.method == "" || inUse[nd.method]
				for _, name := range nd.exported {
					live = live || inUse[name]
				}
				if !live {
					continue
				}
				for name := range nd.names {
					if declared[name] && !slices.Contains(nd.exported, name) {
						use(name)
					}
				}
				for name := range nd.selects {
					for _, m := range methods[name] {
						use(m)
					}
				}
			}
		}
		for key := range declared {
			if inUse[key] {
				continue
			}
			entries := []string{fl.pkg + "." + key}
			if typ, _, ok := strings.Cut(key, "."); ok {
				entries = append(entries, fl.pkg+"."+typ+".*")
			}
			listed := false
			for _, entry := range entries {
				if _, ok := shippedTestSupport[entry]; ok {
					needed[entry], listed = true, true
				}
			}
			if !listed {
				dead = append(dead, fl.pkg+"."+key+" ("+fl.path+")")
			}
		}
	}
	for entry := range shippedTestSupport {
		if !needed[entry] {
			t.Errorf("shippedTestSupport lists %s, which has a production caller or is gone", entry)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names and methods have no production caller; delete them, move them into a _test.go file, or list them in shippedTestSupport with the reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

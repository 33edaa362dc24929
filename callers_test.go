package foresight_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
	"foresight/internal/core.ScoreBoundFor":           "deprecated pin benchmark/layers still times, +Inf for every class (ROADMAP 16)",
	"foresight/internal/durable.NewErrFS":             "the fault-injecting filesystem of the crash tests of durable and server",
	"foresight/internal/durable.ErrFS.*":              "the crash and fault hooks those tests arm on it",
	"foresight/internal/durable.Manager.Checkpoint":   "the forced checkpoint benchmark/layers times (ROADMAP 16)",
	"foresight/internal/frame.MustNew":                "builds the literal frames of the tests of nine packages",
	"foresight/internal/query.Engine.InvalidateCache": "deprecated call benchmark/layers still makes (ROADMAP 16)",
	"foresight/internal/sketch.BuildProfileSharded":   "deprecated alias benchmark/layers still calls (ROADMAP 16)",
	"foresight/internal/sketch.SpaceSaving.Clone":     "builds FuzzSpaceSavingMerge's merge tree in sketchcheck",
	"foresight/internal/stats.Pearson":                "the pair kernel benchmark/layers times (ROADMAP 16)",
	"foresight/internal/stats.Spearman":               "the pair kernel benchmark/layers times (ROADMAP 16)",
}

// implicitInterfaces are the methods of the standard library's
// interfaces that the tree satisfies without selecting the method
// anywhere: sort.Sort calls Len, Less and Swap, fmt calls String.
var implicitInterfaces = map[string]bool{"Len": true, "Less": true, "Swap": true, "String": true}

// TestEveryExportHasAProductionCaller holds the tree to code that
// something ships: every exported package-level func, type, var and
// const, and every exported method, declared in a non-test file under
// internal/ is in use. A package-level name is in use when a non-test
// file other than the one declaring it names it — in its own package,
// another internal package, a command, an example or the facade. A
// method is in use when a non-test file other than its own selects it
// (x.Name, resolved by go/types to the method of x's type, so a
// same-named method of another type does not count), when a non-test
// file selects it on a value of an interface its type implements
// (types.Implements, so a same-named method of a type that could not
// be in that value does not count), or when its name is one of
// implicitInterfaces.
// Either is also in use when a declaration of its own file that is
// itself in use names it: an unexported declaration (unused ones are
// staticcheck's to find), an unexported method, or an exported name or
// method in use. The
// benchmark module does not count as a caller. A name or method only
// tests call belongs in a _test.go file, or goes.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	// node is one top-level declaration of a non-test file: the exported
	// names it declares under internal/, or the exported method it
	// declares there as "Type.Method" (neither for an unexported
	// declaration or method, which count as in use), the identifiers it
	// names and the methods it selects, as "importpath.Type.Method".
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
	// selected holds, for each method selected as x.Name, as
	// "importpath.Type.Method", the non-test files that select it.
	selected := map[string]map[string]bool{}
	// dispatched holds, for each interface a non-test file selects a
	// method on, the names it selects.
	dispatched := map[*types.Interface]map[string]bool{}
	mark := func(m map[string]map[string]bool, key, p string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][p] = true
	}

	fset := token.NewFileSet()
	srcs, pkgs := typedFiles(t, fset)
	for _, src := range srcs {
		p, f, info := src.path, src.file, src.info
		fl := file{path: p, pkg: src.pkg}
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
					if sel := info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal {
						if key := methodKey(sel); key != "" {
							nd.selects[key] = true
							mark(selected, key, p)
						} else {
							it := sel.Obj().Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
							if dispatched[it] == nil {
								dispatched[it] = map[string]bool{}
							}
							dispatched[it][n.Sel.Name] = true
						}
					}
					ast.Inspect(n.X, visit)
					return false
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
	}

	// viaInterface holds, as "importpath.Type.Method", every method a
	// call through an interface value can reach: the method of that name
	// of each type of the module that implements the interface, declared
	// by the type or promoted into it from an embedded one.
	viaInterface := map[string]bool{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			typ := tn.Type()
			generic := typ.(*types.Named).TypeParams().Len() > 0
			for it, names := range dispatched {
				// types.Implements leaves an uninstantiated generic type
				// unspecified, so one is held to the names alone.
				if !generic && !types.Implements(typ, it) && !types.Implements(types.NewPointer(typ), it) {
					continue
				}
				for name := range names {
					obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(typ), false, pkg, name)
					if fn, ok := obj.(*types.Func); ok {
						viaInterface[funcKey(fn)] = true
					}
				}
			}
		}
	}

	var dead []string
	needed := map[string]bool{}
	for _, fl := range files {
		// inUse and declared hold the file's exported names and its
		// methods ("Type.Method").
		inUse := map[string]bool{}
		declared := map[string]bool{}
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
				declared[nd.method] = true
				inUse[nd.method] = implicitInterfaces[name] || viaInterface[fl.pkg+"."+nd.method] ||
					elsewhere(selected[fl.pkg+"."+nd.method])
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
				for key := range nd.selects {
					if m, ok := strings.CutPrefix(key, fl.pkg+"."); ok && declared[m] {
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

// typedFile is one non-test file of the module: its path relative to
// the module root, its package's import path, its syntax and its
// package's type information.
type typedFile struct {
	path, pkg string
	file      *ast.File
	info      *types.Info
}

// typedFiles type-checks every package of the module (the benchmark
// module is its own) from its non-test files and returns the files and
// the packages. Dependencies go first, so a package imports the
// module's packages as they were checked here and one type is one
// object throughout; the standard library is read from the export data
// `go list -export` leaves in the build cache.
func typedFiles(t *testing.T, fset *token.FileSet) ([]typedFile, []*types.Package) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var module []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var l listed
		if err := dec.Decode(&l); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[l.ImportPath] = l.Export
		if !l.Standard {
			module = append(module, l)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return gc.Import(path)
	})}
	var srcs []typedFile
	var pkgs []*types.Package
	for _, l := range module {
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		var files []*ast.File
		for _, name := range l.GoFiles {
			abs := filepath.Join(l.Dir, name)
			f, err := parser.ParseFile(fset, abs, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			srcs = append(srcs, typedFile{path: rel, pkg: l.ImportPath, file: f, info: info})
		}
		pkg, err := conf.Check(l.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", l.ImportPath, err)
		}
		checked[l.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
	}
	return srcs, pkgs
}

// importFunc is a types.Importer.
type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// methodKey is "importpath.Type.Method" for a selection of a method of
// a named type (generic ones by their declaration), and "" for an
// interface's method.
func methodKey(sel *types.Selection) string {
	return funcKey(sel.Obj().(*types.Func))
}

// funcKey is methodKey for the method fn.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

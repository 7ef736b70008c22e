package repro

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/compaction"
)

// TestCIRunPatternsNameTests: every alternative of every quoted -run
// pattern in the CI workflow matches a test or fuzz target declared in one
// of the packages its go test line lists (a dir/... field lists every
// package of the module below dir). A -run pattern that matches nothing
// passes silently, so a renamed test would otherwise drop out of CI
// unnoticed. The stress step selects by name prefix alone: ^TestStress under
// -race and ^TestAlloc without it, so that no second list of tests exists.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	const stressStep = "Stress (race) and allocation counts"
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	stepName := regexp.MustCompile(`^\s*- name: (.*)$`)
	step, lines := "", 0
	var stress []string // the stress step's -run alternatives, each with its line's -race
	for _, line := range strings.Split(string(ci), "\n") {
		if m := stepName.FindStringSubmatch(line); m != nil {
			step = m[1]
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		lines++
		if step == stressStep {
			for _, alt := range strings.Split(m[1], "|") {
				stress = append(stress, fmt.Sprintf("%s race=%t", alt, strings.Contains(line, " -race ")))
			}
		}
		var names []string
		for _, field := range strings.Fields(line) {
			if dir, ok := strings.CutSuffix(field, "/..."); ok {
				names = append(names, testNames(t, dir, true)...)
			} else if strings.HasPrefix(field, "./") {
				names = append(names, testNames(t, field, false)...)
			}
		}
		// -run selects tests and fuzz targets; a benchmark it matches runs
		// only under -bench.
		names = slices.DeleteFunc(names, func(n string) bool { return strings.HasPrefix(n, "Benchmark") })
		for _, alt := range strings.Split(m[1], "|") {
			if !matchesAny(t, alt, names) {
				t.Errorf("-run alternative %q names no test in its packages: %s", alt, strings.TrimSpace(line))
			}
		}
	}
	if lines == 0 {
		t.Fatal("found no go test -run line in the CI workflow")
	}
	slices.Sort(stress)
	if want := []string{"^TestAlloc race=false", "^TestStress race=true"}; !slices.Equal(stress, want) {
		t.Errorf("stress step %q selects %q, want exactly %q", stressStep, stress, want)
	}
}

// TestDocsCiteDeclaredTestsAndLinks: every Test…, Benchmark… or Fuzz… name
// README.md, docs/*.md and the verify skill's SKILL.md cite prefixes a
// function declared in a _test.go file of the repository (the bench
// module's included), every alternative of a quoted -run or -bench pattern
// they cite matches one, and every relative link they hold resolves to a
// file. A renamed test or a moved
// file would otherwise leave the docs pointing at nothing.
func TestDocsCiteDeclaredTestsAndLinks(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs/*.md (%v)", err)
	}
	docs = append([]string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}, docs...)
	names := append(testNames(t, ".", true), testNames(t, "bench", true)...)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	pattern := regexp.MustCompile(`-(?:run|bench)\s+'([^']*)'`)
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(src), -1) {
			if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, name) }) {
				t.Errorf("%s cites %s, which prefixes no declared test", doc, name)
			}
		}
		for _, m := range pattern.FindAllStringSubmatch(string(src), -1) {
			for _, alt := range strings.Split(m[1], "|") {
				if !matchesAny(t, alt, names) {
					t.Errorf("%s: pattern alternative %q matches no declared test", doc, alt)
				}
			}
		}
		for _, m := range link.FindAllStringSubmatch(string(src), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s links to %s: %v", doc, m[1], err)
			}
		}
	}
}

// TestInternalExportsHaveProductionCallers: every exported package-level
// name and every exported method declared under an internal/ directory is
// referenced by non-test code of the module or of the bench module, or else
// its doc comment, or its receiver type's, begins "Test support:" — and then
// no such code references it. A reference inside the name's own
// declaration (a type's includes its methods) or inside one marked as test
// support does not count. A method also counts as referenced when it
// implements a method of an interface type that non-test code uses. Non-test
// files are type-checked from source in `go list -deps` order, the standard
// library from export data. docs/static-analysis.md says how to act on a
// report.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	const marker = "Test support:"
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(listPackages(t, "."), listPackages(t, "bench")...)
	fset := token.NewFileSet()
	export := map[string]string{}
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}}
	var files []*ast.File
	internal := map[*ast.File]bool{} // files under an internal/ directory
	for _, p := range pkgs {
		if p.Standard || checked[p.ImportPath] != nil {
			continue // bench lists the module's packages again
		}
		var syntax []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			syntax = append(syntax, f)
			internal[f] = strings.Contains("/"+p.ImportPath+"/", "/internal/")
		}
		conf := types.Config{Importer: imp}
		if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, syntax, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		files = append(files, syntax...)
	}

	// Every declaration's doc comment, and the exported ones under internal/.
	docs := map[types.Object]string{}
	var exported []types.Object
	declare := func(f *ast.File, name *ast.Ident, doc *ast.CommentGroup) {
		obj := info.Defs[name]
		docs[obj] = doc.Text()
		if internal[f] && name.IsExported() {
			exported = append(exported, obj)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(f, d.Name, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					if d.Lparen.IsValid() {
						doc = nil
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(f, s.Name, cmp.Or(s.Doc, doc))
					case *ast.ValueSpec:
						for _, name := range s.Names {
							declare(f, name, cmp.Or(s.Doc, doc))
						}
					}
				}
			}
		}
	}
	// owners is what a declaration declares, a method's receiver type
	// included, and test reports whether it is test support.
	owners := func(obj types.Object) []types.Object {
		if named, ok := receiver(obj); ok {
			return []types.Object{obj, named.Obj()}
		}
		return []types.Object{obj}
	}
	test := func(objs []types.Object) bool {
		return slices.ContainsFunc(objs, func(o types.Object) bool { return strings.HasPrefix(docs[o], marker) })
	}

	used := map[types.Object]token.Pos{}  // an object's first reference
	ifaces := map[*types.Interface]bool{} // the interface types non-test code uses
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	note := func(typ types.Type) {
		addIface(typ)
		if sig, ok := typ.(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					addIface(tuple.At(i).Type())
				}
			}
		}
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			note(tv.Type)
		}
	}
	scan := func(decl ast.Node, own []types.Object) {
		skip := test(own)
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				obj := origin(info.Uses[id])
				note(obj.Type())
				if !skip && !slices.Contains(own, obj) && used[obj] == token.NoPos {
					used[obj] = id.Pos()
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				scan(d, owners(info.Defs[d.Name]))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var own []types.Object
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own = []types.Object{info.Defs[s.Name]}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							own = append(own, info.Defs[name])
						}
					}
					scan(spec, own)
				}
			}
		}
	}

	// The standard library is not scanned, so the interfaces an imported
	// standard package declares count as used (fmt calls String, sort calls
	// Less), and so does the Unwrap, Is and As protocol of package errors.
	var named []types.Type // the module's non-generic named types
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n, types.NewPointer(n))
				}
			}
		}
		for _, dep := range pkg.Imports() {
			if checked[dep.Path()] == nil {
				for _, name := range dep.Scope().Names() {
					if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						addIface(tn.Type())
					}
				}
			}
		}
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	// implements reports whether method fn, declared or promoted, makes a
	// type implement a used interface that has a method of fn's name.
	implements := func(fn *types.Func) bool {
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
				continue
			}
			for _, typ := range named {
				if obj, _, _ := types.LookupFieldOrMethod(typ, false, fn.Pkg(), fn.Name()); obj == fn && types.Implements(typ, it) {
					return true
				}
			}
		}
		switch fn.Name() {
		case "Unwrap", "Is", "As":
			return types.Implements(fn.Type().(*types.Signature).Recv().Type(), errorType)
		}
		return false
	}

	for _, obj := range exported {
		own := owners(obj)
		if len(own) > 1 && test(own[1:]) {
			continue // its receiver type is test support, and so is its method set
		}
		marked, reached := test(own), used[obj] != token.NoPos
		if fn, ok := obj.(*types.Func); ok && len(own) > 1 && !reached {
			reached = implements(fn)
		}
		pos, ref := fset.Position(obj.Pos()), fset.Position(used[obj])
		rel, _ := filepath.Rel(wd, pos.Filename)
		name := obj.Pkg().Name() + "." + obj.Name()
		if len(own) > 1 {
			name = obj.Pkg().Name() + "." + own[1].Name() + "." + obj.Name()
		}
		switch {
		case marked && reached:
			at := "an interface it implements"
			if ref.IsValid() {
				refRel, _ := filepath.Rel(wd, ref.Filename)
				at = fmt.Sprintf("%s:%d", refRel, ref.Line)
			}
			t.Errorf("%s:%d: %s is marked %q, but non-test code references it (%s)", rel, pos.Line, name, marker, at)
		case !marked && !reached:
			t.Errorf("%s:%d: %s: no non-test code references it", rel, pos.Line, name)
		}
	}
}

// TestSyncPoolOnlyInRecycle: no non-test Go outside internal/recycle names
// sync.Pool, so every recycled object follows recycle.Pool's one rule for
// reset, a second release and recycle.Poison, and the discipline cannot
// erode one hand-rolled pool at a time.
func TestSyncPoolOnlyInRecycle(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == filepath.Join("internal", "recycle") || d.Name() == "testdata" ||
			path != "." && strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		sync := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` {
				sync = "sync"
				if imp.Name != nil {
					sync = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == sync {
					t.Errorf("%s: names sync.Pool; recycle an object through recycle.Pool", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsNameEveryEngineStrategy: README's WithAutoCompact(policy) options
// row quotes exactly the names the engine accepts (the compaction package's
// strategy table) and "none", so a strategy added to, renamed in or retired
// from the table cannot leave the documented set behind.
func TestDocsNameEveryEngineStrategy(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const rowStart = "| `WithAutoCompact(policy)` |"
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, rowStart) {
			row = line
		}
	}
	if row == "" {
		t.Fatalf("README.md has no row beginning %s", rowStart)
	}
	var quoted []string
	for _, m := range regexp.MustCompile("`\"([^\"`]*)\"`").FindAllStringSubmatch(row, -1) {
		quoted = append(quoted, m[1])
	}
	slices.Sort(quoted)
	want := append(compaction.EngineStrategies(), "none")
	slices.Sort(want)
	if got := slices.Compact(quoted); !slices.Equal(got, want) {
		t.Errorf("README's WithAutoCompact row quotes %q, want %q", got, want)
	}
}

// testNames returns the Test, Benchmark and Fuzz functions declared in the
// _test.go files of dir and, if all, of every package below it up to a
// nested module (a directory with its own go.mod).
func testNames(t *testing.T, dir string, all bool) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var names []string
	found := false
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !all || err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		found = true
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil || !found {
		t.Fatalf("package %s has no test files (%v)", dir, err)
	}
	return names
}

// matchesAny reports whether the regular expression alt matches one of
// names.
func matchesAny(t *testing.T, alt string, names []string) bool {
	t.Helper()
	re, err := regexp.Compile(alt)
	if err != nil {
		t.Fatalf("%q: %v", alt, err)
	}
	return slices.ContainsFunc(names, re.MatchString)
}

// listedPackage is the part of `go list -json` output the export check
// reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	Standard                bool
	GoFiles                 []string
}

// listPackages returns the packages of the module at dir and everything
// they import, dependencies first, with the standard library's export data
// built.
func listPackages(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiver returns the named type whose method obj is.
func receiver(obj types.Object) (*types.Named, bool) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil, false
	}
	typ := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	return named, ok
}

// Package linttest is the suite's analysistest equivalent: it loads a
// fixture module (a directory with its own go.mod under
// testdata/src/...), runs analyzers over it, and checks the findings
// against `// want "regexp"` comments in the fixture sources. Fixture
// modules are real, compilable Go modules — the loader builds them with
// `go list -export` — but their nested go.mod keeps them out of the
// repository's own ./... patterns, so intentional violations never trip
// the suite on the repo itself.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/cmd/lsmlint/internal/lintcore"
)

// wantRe matches one expectation: want "..." or want `...`.
var wantRe = regexp.MustCompile("// want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// Test support: Run loads the fixture module rooted at dir (relative to the
// test's working directory) and checks the analyzers' combined findings
// against the fixture's // want comments. Every finding must be wanted and
// every want must be found, line by line.
func Run(t *testing.T, dir string, analyzers ...*lintcore.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lintcore.Load(abs, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", dir)
	}

	type want struct {
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" → expectations
	key := func(pos token.Position) string {
		return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}

	var diags []lintcore.Diagnostic
	for _, pkg := range pkgs {
		ds, err := lintcore.RunAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, ds...)
		for _, f := range pkg.Files {
			collectWants(t, pkg.Fset, f, func(pos token.Position, raw string) {
				re, err := regexp.Compile(raw)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
				}
				wants[key(pos)] = append(wants[key(pos)], &want{re: re, raw: raw})
			})
		}
	}

	for _, d := range diags {
		k := key(d.Pos)
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no finding matched want %q", k, w.raw)
			}
		}
	}
}

// collectWants reports every // want expectation in the file through fn,
// positioned at the line the comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, fn func(token.Position, string)) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
				raw := m[1]
				var pattern string
				if strings.HasPrefix(raw, "`") {
					pattern = strings.Trim(raw, "`")
				} else {
					var err error
					pattern, err = strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", fset.Position(c.Pos()), raw, err)
					}
				}
				fn(fset.Position(c.Pos()), pattern)
			}
		}
	}
}

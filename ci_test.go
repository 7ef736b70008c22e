package repro

import (
	"fmt"
	"io/fs"
	"os"
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

package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests: every alternative of every quoted -run
// pattern in the CI workflow matches a test or fuzz target declared in one
// of the packages its go test line lists. A -run pattern that matches
// nothing passes silently, so a renamed test would otherwise drop out of CI
// unnoticed.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	lines := 0
	for _, line := range strings.Split(string(ci), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil || !strings.Contains(line, "go test") {
			continue
		}
		lines++
		var names []string
		for _, field := range strings.Fields(line) {
			if !strings.HasPrefix(field, "./") {
				continue
			}
			files, err := filepath.Glob(filepath.Join(field, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%q: package %s has no test files (%v)", line, field, err)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range decl.FindAllStringSubmatch(string(src), -1) {
					names = append(names, d[1])
				}
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("%q: %v", alt, err)
			}
			found := false
			for _, n := range names {
				found = found || re.MatchString(n)
			}
			if !found {
				t.Errorf("-run alternative %q names no test in its packages: %s", alt, strings.TrimSpace(line))
			}
		}
	}
	if lines == 0 {
		t.Fatal("found no go test -run line in the CI workflow")
	}
}

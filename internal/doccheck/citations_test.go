package doccheck

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citingDocs are the documents whose test citations must name tests that
// exist.
var citingDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "OPERATORS.md", "PLANNER.md"}

// citation matches a cited test, fuzz target or benchmark, bare or
// package-qualified (`dfs.TestX`); a trailing * makes it a prefix.
var citation = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// testFunc matches the declaration of a test, fuzz target or benchmark.
var testFunc = regexp.MustCompile(`(?m)^func\s+((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\s*\(`)

// TestCitedTestsExist fails on every test name a document cites that no
// _test.go file in the repository declares, so a deleted or renamed test
// cannot stay cited as if it still pinned something.
func TestCitedTestsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(declared))
	for n := range declared {
		names = append(names, n)
	}
	sort.Strings(names)
	exists := func(cited string) bool {
		if prefix, ok := strings.CutSuffix(cited, "*"); ok {
			i := sort.SearchStrings(names, prefix)
			return i < len(names) && strings.HasPrefix(names[i], prefix)
		}
		return declared[cited]
	}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, cited := range citation.FindAllString(line, -1) {
				if !exists(cited) {
					t.Errorf("%s:%d cites %s, which no _test.go file declares", doc, i+1, cited)
				}
			}
		}
	}
}

// Package linttest is rapidlint's analogue of
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer over
// fixture packages under the calling test's testdata/src directory and
// compares the diagnostics against golden "// want" comments in the
// fixtures.
//
// A want comment expects one diagnostic per quoted regexp, on the comment's
// own line:
//
//	return fmt.Sprintf("%s|%s", a, b) // want "fmt.Sprintf allocates"
//
// Unmatched diagnostics and unsatisfied expectations both fail the test.
// Suppression is part of the contract under test: the harness routes
// diagnostics through the same driver the rapidlint binary uses, so
// justified //lint: directives remove diagnostics and malformed ones
// (unjustified, or naming an analyzer other than the one under test)
// surface as "lint" pseudo-analyzer findings (match those with want
// comments too; a "// want" marker may share the physical comment with the
// directive it checks).
package linttest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/driver"
)

// Run loads testdata/src/<pkg> for each named fixture package, runs the
// analyzer over each fixture on its own, exactly as the real driver does,
// and checks the diagnostics against the fixtures' want comments. Whatever
// the fixtures import is read as export data only.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	patterns := make([]string, len(fixtures))
	for i, p := range fixtures {
		patterns[i] = "./src/" + p
	}
	pkgs, err := driver.Load("testdata", driver.Options{}, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(fixtures))
	}
	diags, err := driver.RunAll(pkgs, []*analysis.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("analyzing fixtures: %v", err)
	}
	checkWants(t, pkgs, diags)
}

// expectation is one golden diagnostic: a message regexp anchored to a line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

func checkWants(t *testing.T, pkgs []*driver.Package, diags []driver.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, re := range parseWants(t, pos.String(), c.Text) {
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts the quoted regexps following a "want" marker in a
// comment, if any.
func parseWants(t *testing.T, at, text string) []*regexp.Regexp {
	t.Helper()
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[idx+len("// want "):])
	var res []*regexp.Regexp
	for rest != "" {
		if rest[0] != '"' && rest[0] != '`' {
			t.Fatalf("%s: malformed want: expected quoted regexp at %q", at, rest)
		}
		q, tail, err := cutQuoted(rest)
		if err != nil {
			t.Fatalf("%s: malformed want: %v", at, err)
		}
		re, err := regexp.Compile(q)
		if err != nil {
			t.Fatalf("%s: bad want regexp: %v", at, err)
		}
		res = append(res, re)
		rest = strings.TrimLeftFunc(tail, unicode.IsSpace)
	}
	return res
}

// cutQuoted splits one leading Go string literal off s.
func cutQuoted(s string) (string, string, error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case s[i] == '\\' && quote == '"':
			i++
		case s[i] == quote:
			q, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("unquoting %s: %w", s[:i+1], err)
			}
			return q, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quote in %q", s)
}

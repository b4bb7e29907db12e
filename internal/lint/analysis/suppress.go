package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A diagnostic is suppressed when a matching
// directive comment sits on the diagnostic's line or on the line directly
// above it, and the directive carries a non-empty justification:
//
//	//lint:ignore <analyzer> <justification>   — suppress one analyzer
//	//lint:alloc <justification>               — alias for "ignore hotalloc"
//
// A directive with no justification, one naming no analyzer of the suite,
// or one with any other verb suppresses nothing and is itself reported: the
// whole point of machine-checking these invariants is that every exception
// records its argument in the source, and a misspelled verb or a retired
// analyzer name would otherwise sit there inert.

// directive is one parsed //lint: comment.
type directive struct {
	pos      token.Pos
	verb     string // "ignore" or "alloc"; any other verb is reported
	analyzer string // analyzer name the directive targets
	reason   string // justification text; empty is a violation
}

// Suppressor indexes a package's //lint: directives by file and line.
type Suppressor struct {
	fset  *token.FileSet
	byLoc map[string]map[int][]directive
	all   []directive
}

// NewSuppressor scans the files' comments for suppression directives.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, byLoc: map[string]map[int][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byLoc[pos.Filename]
				if lines == nil {
					lines = map[int][]directive{}
					s.byLoc[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				s.all = append(s.all, d)
			}
		}
	}
	return s
}

// parseDirective parses one comment as a suppression directive.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//lint:")
	if !ok {
		return directive{}, false
	}
	// The payload ends at an embedded "//": it lets test fixtures append a
	// golden "// want" marker to a directive, and justifications have no
	// business containing comment markers anyway.
	text, _, _ = strings.Cut(text, "//")
	verb, rest, _ := strings.Cut(text, " ")
	rest = strings.TrimSpace(rest)
	d := directive{pos: c.Pos(), verb: verb}
	switch verb {
	case "ignore":
		d.analyzer, d.reason, _ = strings.Cut(rest, " ")
		d.reason = strings.TrimSpace(d.reason)
	case "alloc":
		d.analyzer, d.reason = "hotalloc", rest
	}
	return d, true
}

// Suppressed reports whether a diagnostic from the named analyzer at pos is
// covered by a justified directive on the same or the preceding line.
func (s *Suppressor) Suppressed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	lines := s.byLoc[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.analyzer == analyzer && d.reason != "" {
				return true
			}
		}
	}
	return false
}

// Problems returns one diagnostic per malformed directive: an unknown verb,
// a missing analyzer name, a name that is not in suite (the names of every
// analyzer the run knows, including those it does not apply to this
// package), or a missing justification. These are reported under the
// pseudo-analyzer name "lint".
func (s *Suppressor) Problems(suite map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.all {
		switch {
		case d.verb != "ignore" && d.verb != "alloc":
			out = append(out, Diagnostic{Pos: d.pos, Message: "lint:" + d.verb + " is no directive (want lint:ignore or lint:alloc); it suppresses nothing"})
		case d.analyzer == "":
			out = append(out, Diagnostic{Pos: d.pos, Message: "lint:ignore directive names no analyzer"})
		case !suite[d.analyzer]:
			out = append(out, Diagnostic{Pos: d.pos, Message: "lint:ignore directive names " + d.analyzer + ", which is no analyzer of the suite; it suppresses nothing"})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Message: "suppression of " + d.analyzer + " has no justification; state the argument after the directive"})
		}
	}
	return out
}

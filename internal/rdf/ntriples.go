package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// WriteNTriples serialises the graph in N-Triples format, one statement per
// line.
func WriteNTriples(w io.Writer, g *Graph) error {
	return writeLines(w, len(g.Triples), func(b []byte, i int) []byte { return appendTriple(b, g.Triples[i]) })
}

// WriteIDNTriples serialises the statements ts, whose terms are IDs of d,
// as WriteNTriples serialises the graph they decode to, repeats included.
func WriteIDNTriples(w io.Writer, d *Dict, ts []IDTriple) error {
	return writeLines(w, len(ts), func(b []byte, i int) []byte {
		t := ts[i]
		return appendTriple(b, Triple{TermFromKey(d.entry(t.S).key), TermFromKey(d.entry(t.P).key), TermFromKey(d.entry(t.O).key)})
	})
}

// writeLines writes n statements, the ith as appendLine appends it to a
// line buffer the statements share, each followed by " .\n".
func writeLines(w io.Writer, n int, appendLine func(b []byte, i int) []byte) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range n {
		line = append(appendLine(line[:0], i), " .\n"...)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses an N-Triples document. It accepts the subset of the
// grammar produced by WriteNTriples and by common exporters: IRIs in angle
// brackets, plain and language-tagged/typed literals (tags and datatypes are
// dropped), blank nodes, comments and blank lines. A subject is an IRI or
// a blank node and a property an IRI; ECHAR escapes are read in literals,
// UCHAR escapes in literals and IRIs.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := &Graph{}
	if err := scanNTriples(r, false, func(t Triple) { g.Add(t) }); err != nil {
		return nil, err
	}
	return g, nil
}

// InternNTriples reads an N-Triples document as ReadNTriples does and
// appends its statements to dst as InternTriples would append the graph's,
// interning each statement as its line is parsed, so no statement or term
// is kept as a string. A document that fails to parse changes nothing: d
// is truncated back to its length at the call (Dict.truncate) and dst is
// returned at its length. The call holds d's lock throughout, so other
// writers and the by-key readers (Lookup, KeyString) wait for it; no
// by-ID reader may be handed an ID the call assigns before it returns.
func InternNTriples(d *Dict, dst []IDTriple, r io.Reader) ([]IDTriple, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	terms, statements := d.Len(), len(dst)
	in := interner{d: d, props: map[string]uint64{}}
	if err := scanNTriples(r, true, func(t Triple) { dst = append(dst, in.add(t)) }); err != nil {
		d.truncate(terms)
		return dst[:statements], err
	}
	return dst, nil
}

// scanNTriples calls fn with each statement of an N-Triples document, in
// order, and stops at the first line that fails to parse. With view set,
// the terms' values are views of the scanner's buffer, valid only during
// the call; without, they share one string per line.
func scanNTriples(r io.Reader, view bool, fn func(Triple)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var line string
		if view {
			b := sc.Bytes()
			line = unsafe.String(unsafe.SliceData(b), len(b))
		} else {
			line = sc.Text()
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTLine(line)
		if err != nil {
			return fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		fn(t)
	}
	return sc.Err()
}

func parseNTLine(line string) (Triple, error) {
	p := &ntParser{in: line}
	s, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("property: %w", err)
	}
	if s.Kind == Literal || pr.Kind != IRI {
		return Triple{}, fmt.Errorf("%s subject or %s property: want an IRI or blank subject and an IRI property", s.Kind, pr.Kind)
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipSpace()
	if !strings.HasPrefix(p.rest(), ".") {
		return Triple{}, fmt.Errorf("missing terminating dot")
	}
	return Triple{Subject: s, Property: pr, Object: o}, nil
}

type ntParser struct {
	in  string
	pos int
}

func (p *ntParser) rest() string { return p.in[p.pos:] }

func (p *ntParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.in[p.pos] {
	case '<':
		v, n, err := unescape(p.in[p.pos+1:], '>', false)
		if err != nil {
			return Term{}, fmt.Errorf("IRI: %w", err)
		}
		p.pos += 1 + n
		return NewIRI(v), nil
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		end := start
		for end < len(p.in) && p.in[end] != ' ' && p.in[end] != '\t' {
			end++
		}
		v := p.in[start:end]
		p.pos = end
		if v == "" {
			return Term{}, fmt.Errorf("empty blank node label")
		}
		return NewBlank(v), nil
	case '"':
		v, n, err := unescape(p.in[p.pos+1:], '"', true)
		if err != nil {
			return Term{}, fmt.Errorf("literal: %w", err)
		}
		p.pos += 1 + n
		// Drop optional language tag or datatype.
		if strings.HasPrefix(p.rest(), "@") {
			for p.pos < len(p.in) && p.in[p.pos] != ' ' && p.in[p.pos] != '\t' {
				p.pos++
			}
		} else if strings.HasPrefix(p.rest(), "^^") {
			p.pos += 2
			if p.pos < len(p.in) && p.in[p.pos] == '<' {
				end := strings.IndexByte(p.in[p.pos:], '>')
				if end < 0 {
					return Term{}, fmt.Errorf("unterminated datatype IRI")
				}
				p.pos += end + 1
			}
		}
		return NewLiteral(v), nil
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

// echars maps each ECHAR's letter to the character it stands for.
var echars = map[byte]byte{'t': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f', '"': '"', '\'': '\'', '\\': '\\'}

// unescape reads in up to its first unescaped end byte and returns the
// unescaped value and the number of bytes read, end included. It decodes
// UCHARs (\uXXXX, \UXXXXXXXX), and ECHARs too when echar is set.
func unescape(in string, end byte, echar bool) (string, int, error) {
	if j := strings.IndexByte(in, end); j >= 0 && strings.IndexByte(in[:j], '\\') < 0 {
		return in[:j], j + 1, nil // nothing to unescape
	}
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		c := in[i]
		switch {
		case c == end:
			return b.String(), i + 1, nil
		case c != '\\':
			b.WriteByte(c)
		case i+1 < len(in) && (in[i+1] == 'u' || in[i+1] == 'U'):
			n := 4
			if in[i+1] == 'U' {
				n = 8
			}
			hex := in[i+2 : min(i+2+n, len(in))]
			r, err := strconv.ParseUint(hex, 16, 32)
			if err != nil || len(hex) != n || !utf8.ValidRune(rune(r)) {
				return "", 0, fmt.Errorf("bad escape \\%c%s", in[i+1], hex)
			}
			b.WriteRune(rune(r))
			i += 1 + len(hex)
		case i+1 < len(in) && echar && echars[in[i+1]] != 0:
			b.WriteByte(echars[in[i+1]])
			i++
		default:
			return "", 0, fmt.Errorf("bad escape at %q", in[i:min(i+2, len(in))])
		}
	}
	return "", 0, fmt.Errorf("missing closing %q", end)
}

package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteNTriples serialises the graph in N-Triples format, one statement per
// line.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if _, err := bw.WriteString(" .\n"); err != nil {
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTLine(line)
		if err != nil {
			return nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		g.Add(t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
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

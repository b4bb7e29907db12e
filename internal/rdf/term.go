// Package rdf provides the core RDF data model used throughout the system:
// terms (IRIs, literals, blank nodes), triples, an N-Triples reader/writer,
// and the term dictionary with the interned form of a graph every loader
// builds from (IDGraph). The model is deliberately lexical — values are
// strings and numeric interpretation happens at filter/aggregation time —
// matching how the paper's systems (Hive over text/ORC tables, Pig
// triplegroups) treat RDF terms.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an internationalized resource identifier.
	IRI TermKind = iota
	// Literal is an RDF literal. Only plain (string) literals are needed by
	// the analytical workloads; numeric interpretation is lexical.
	Literal
	// Blank is a blank node with a local label.
	Blank
)

// String names the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. The zero Term is an empty IRI and is treated as
// invalid by Valid.
type Term struct {
	Kind  TermKind // IRI, Literal or Blank
	Value string   // the IRI, the literal's lexical form, or the blank label
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewBlank returns a blank-node term with the given label (without the "_:"
// prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// Valid reports whether the term has a non-empty value.
func (t Term) Valid() bool { return t.Value != "" }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// String renders the term in N-Triples surface syntax.
func (t Term) String() string { return string(appendTerm(nil, t)) }

// Key returns a compact string that uniquely identifies the term across
// kinds. It is used as a join/grouping key; two terms are join-equal iff
// their keys are equal.
func (t Term) Key() string { return string(keyTag(t.Kind)) + t.Value }

// keyTags holds each kind's Term.Key tag, in kind order.
const keyTags = "ILB"

// keyTag returns the Term.Key tag of kind: an unknown kind's is an IRI's.
func keyTag(kind TermKind) byte {
	if int(kind) < len(keyTags) {
		return keyTags[kind]
	}
	return 'I'
}

// TermFromKey reverses Term.Key: the tags I, L and B are the kinds in
// order, and any other tag reads as an IRI's.
func TermFromKey(k string) Term {
	if k == "" {
		return Term{}
	}
	return Term{Kind: TermKind(max(0, strings.IndexByte(keyTags, k[0]))), Value: k[1:]}
}

// KeyLex returns the lexical form of a term key: the key without its
// one-byte kind tag. Only term keys go through it; an aggregate's final or
// an expression's result is lexical already.
func KeyLex(key string) string { return key[min(1, len(key)):] }

// KeyNumber returns the number a term key denotes: a literal whose
// lexical form is one (LexNumber). IRIs and blank nodes are never numbers.
func KeyNumber(key string) (float64, bool) {
	if key == "" || key[0] != 'L' {
		return 0, false
	}
	return LexNumber(key[1:])
}

// LexNumber parses a lexical form as a number, sparing the strings
// strconv.ParseFloat rejects by their first bytes the error it allocates.
func LexNumber(lex string) (float64, bool) {
	if !mayParseFloat(lex) {
		return 0, false
	}
	f, err := strconv.ParseFloat(lex, 64)
	return f, err == nil
}

// appendTerm appends t in N-Triples surface syntax: an IRI in angle
// brackets with every character IRIREF forbids as a UCHAR, a literal in
// quotes with the ECHARs it needs, a blank node after "_:".
func appendTerm(b []byte, t Term) []byte {
	switch t.Kind {
	case IRI:
		return append(appendEscaped(append(b, '<'), t.Value, iriForbidden), '>')
	case Literal:
		return append(appendEscaped(append(b, '"'), t.Value, echarLetter), '"')
	case Blank:
		return append(append(b, "_:"...), t.Value...)
	default:
		return append(b, t.Value...)
	}
}

// termEscapes is the term writer's table, one entry per byte: the ECHAR
// letter a literal writes the byte as (0 when it needs none), with
// iriForbidden set when IRIREF forbids the byte, so an IRI writes it as a
// UCHAR.
var termEscapes = func() (t [256]byte) {
	for c := range byte(0x80) {
		if c <= ' ' || strings.IndexByte("<>\"{}|^`\\", c) >= 0 {
			t[c] = iriForbidden
		}
	}
	for c, letter := range map[byte]byte{'"': '"', '\\': '\\', '\n': 'n', '\r': 'r', '\t': 't'} {
		t[c] |= letter
	}
	return t
}()

// The two parts of a termEscapes entry: iriForbidden marks a byte IRIREF
// forbids, and the low seven bits hold the byte's ECHAR letter.
const (
	iriForbidden = 0x80
	echarLetter  = 0x7f
)

// appendEscaped appends s, writing every byte whose termEscapes entry
// has a bit of mask (iriForbidden or echarLetter) set as an escape: a
// UCHAR for iriForbidden, else its ECHAR. s is appended as it is when no
// byte needs escaping.
func appendEscaped(b []byte, s string, mask byte) []byte {
	i := 0
	for i < len(s) && termEscapes[s[i]]&mask == 0 {
		i++
	}
	b = append(b, s[:i]...)
	for ; i < len(s); i++ {
		c := s[i]
		switch e := termEscapes[c] & mask; {
		case e == 0:
			b = append(b, c)
		case mask == iriForbidden:
			b = append(b, '\\', 'u', '0', '0', upperHex[c>>4], upperHex[c&0xf])
		default:
			b = append(b, '\\', e)
		}
	}
	return b
}

const upperHex = "0123456789ABCDEF"

// Triple is a single RDF statement.
type Triple struct {
	Subject  Term // what the statement is about
	Property Term // called Predicate in RDF specs; the paper says Property
	Object   Term // the value
}

// T is a convenience constructor for a triple of IRIs/literals.
func T(s, p Term, o Term) Triple { return Triple{Subject: s, Property: p, Object: o} }

// String renders the triple in N-Triples syntax (without the trailing dot).
func (t Triple) String() string { return string(appendTriple(nil, t)) }

// appendTriple appends t in N-Triples syntax, without the trailing dot.
func appendTriple(b []byte, t Triple) []byte {
	b = append(appendTerm(b, t.Subject), ' ')
	b = append(appendTerm(b, t.Property), ' ')
	return appendTerm(b, t.Object)
}

// RDFType is the rdf:type property IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// TypeTerm is the rdf:type property as a Term.
var TypeTerm = NewIRI(RDFType)

// Graph is an in-memory list of statements, the lexical form at the
// boundary: what parsing and the generators return, and what WriteNTriples
// and the reference implementation read (as a set). Stores keep IDs instead.
type Graph struct {
	Triples []Triple // the statements as added, repeats included
}

// Add appends triples to the graph.
func (g *Graph) Add(ts ...Triple) { g.Triples = append(g.Triples, ts...) }

// Len returns the number of statements added, repeats included.
func (g *Graph) Len() int { return len(g.Triples) }

// Properties returns the set of distinct property IRIs in the graph.
func (g *Graph) Properties() map[string]int {
	m := make(map[string]int)
	for _, t := range g.Triples {
		m[t.Property.Value]++
	}
	return m
}

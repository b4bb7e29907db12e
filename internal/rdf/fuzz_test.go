package rdf

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

func FuzzTermFromKey(f *testing.F) {
	f.Add("")
	f.Add("Ihttp://example.org/s")
	f.Add("L42.5")
	f.Add("Bnode1")
	f.Add("L")
	f.Add("\x00\x1f\x1e")
	f.Fuzz(func(t *testing.T, k string) {
		term := TermFromKey(k)
		if k == "" {
			if term != (Term{}) {
				t.Fatalf("TermFromKey(%q) = %+v, want zero term", k, term)
			}
			return
		}
		// Key() tags the value with the kind byte; for any tagged key the
		// round trip must be the identity (untagged keys normalise to 'I').
		got := term.Key()
		want := k
		switch k[0] {
		case 'L', 'B', 'I':
		default:
			want = "I" + k[1:]
		}
		if got != want {
			t.Fatalf("TermFromKey(%q).Key() = %q, want %q", k, got, want)
		}
	})
}

// FuzzDictRoundTrip checks the dictionary invariants for arbitrary term
// keys: AddString is idempotent, Lex inverts it, and the ID-string resolves
// back to the same ID.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add("Ihttp://example.org/s")
	f.Add("L3.14")
	f.Add("Bb0")
	f.Add("")
	f.Add("L\x1fweird\x00bytes")
	f.Fuzz(func(t *testing.T, key string) {
		d := NewDict()
		idStr := d.AddString(key)
		if again := d.AddString(key); again != idStr {
			t.Fatalf("AddString(%q) not idempotent: %x vs %x", key, []byte(idStr), []byte(again))
		}
		if lex, ok := d.Lex(idStr); !ok || lex != key {
			t.Fatalf("Lex(AddString(%q)) = %q, %v", key, lex, ok)
		}
	})
}

// FuzzNTriplesRoundTrip: WriteNTriples then ReadNTriples gives back the
// same graph, for non-empty, valid UTF-8 IRIs and literals and blank labels
// without whitespace. kinds picks the subject's kind (IRI or blank) and
// the object's (IRI, literal or blank).
func FuzzNTriplesRoundTrip(f *testing.F) {
	f.Add("http://s>", "http://e/p", "o", uint8(0))
	f.Add("s", "http://e/a b\\c", "it's\b\f\"\\\n\r\t", uint8(2))
	f.Add("http://e/\x00<>\"{}|^`", "p", "é😀\U0010FFFF", uint8(4))
	f.Add("b1", "p", "_:p", uint8(5))
	f.Add("s", "p", "\\u0041\\U00000041", uint8(2))
	f.Fuzz(func(t *testing.T, s, p, o string, kinds uint8) {
		term := func(kind TermKind, v string) (Term, bool) {
			ok := v != "" && utf8.ValidString(v) && (kind != Blank || !strings.ContainsFunc(v, unicode.IsSpace))
			return Term{Kind: kind, Value: v}, ok
		}
		st, okS := term([]TermKind{IRI, Blank}[kinds%2], s)
		pt, okP := term(IRI, p)
		ot, okO := term([]TermKind{IRI, Literal, Blank}[kinds/2%3], o)
		if !okS || !okP || !okO {
			return
		}
		// A second statement has the object as its subject, unless it is
		// a literal.
		g := &Graph{}
		g.Add(T(st, pt, ot), T(ot, pt, ot))
		if ot.Kind == Literal {
			g.Triples = g.Triples[:1]
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadNTriples(%q): %v", buf.String(), err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("ReadNTriples(%q) = %v, want %v", buf.String(), got.Triples, g.Triples)
		}
	})
}

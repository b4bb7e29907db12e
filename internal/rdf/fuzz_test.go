package rdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
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

// FuzzDictNumeric: the numeric value a Dict caches for a literal is what
// strconv.ParseFloat makes of its lexical form, for every literal.
func FuzzDictNumeric(f *testing.F) {
	for _, s := range []string{"42", "-3.5e2", "+.5", "0x1p-2", "1_000", "Inf", "-infinity", "nan", "+nan", "NaN", "", "-", "abc", "1e", ".", "e5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, lex string) {
		d := NewDict()
		got, ok := d.NumericIDString(d.AddString("L" + lex))
		want, err := strconv.ParseFloat(lex, 64)
		if ok != (err == nil) || ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("cached %q as %v, %v; ParseFloat gives %v, %v", lex, got, ok, want, err)
		}
	})
}

// FuzzReadID holds ReadID to the dictionary-resolving reader it replaced in
// the decoders: read a uvarint, resolve it through Dict.IDString, and
// accept it only when the bytes read are the interned ID-string — which
// rejects overlong forms and IDs beyond the dictionary. Both readers must
// agree on every input, and ReadID on bytes and on a string alike.
func FuzzReadID(f *testing.F) {
	d := NewDict()
	for i := range 300 {
		d.Add("L" + strconv.Itoa(i))
	}
	for _, s := range []string{"", "\x00", "\x01", "\x7f", "\x80\x01", "\xac\x02", "\xad\x02", "\x80\x00", "\x81\x00", MissingIDString,
		"\x01\x02", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		id, n, err := ReadID(b, uint64(d.Len()))
		if sid, sn, serr := ReadID(string(b), uint64(d.Len())); sid != id || sn != n || (serr == nil) != (err == nil) {
			t.Fatalf("ReadID(%x) = %d, %d, %v on bytes, %d, %d, %v on a string", b, id, n, err, sid, sn, serr)
		}
		rid, k := binary.Uvarint(b)
		ref, ok := "", k > 0
		if ok {
			ref, ok = d.IDString(rid)
			ok = ok && ref == string(b[:k])
		}
		if (err == nil) != ok {
			t.Fatalf("ReadID(%x) err = %v; dictionary reader ok = %v", b, err, ok)
		}
		if ok && (id != rid || n != k) {
			t.Fatalf("ReadID(%x) = %d, %d; dictionary reader %d, %d", b, id, n, rid, k)
		}
	})
}

// FuzzInternNTriplesMatchesReference holds InternNTriples to ReadNTriples
// followed by InternTriples, batch by batch, each side into its own Dict:
// the same IDTriples, the same Dict (length and key per ID) and the same
// error, line number included. A batch that fails leaves its Dict and
// statements as they were, and the batches after it continue them. A new
// batch starts before each line whose bit of cuts (line number mod 64) is
// set.
func FuzzInternNTriplesMatchesReference(f *testing.F) {
	for _, doc := range []string{
		"<http://e/s> <http://e/p> \"1\" .\n<http://e/s> <http://e/p> \"2\" .\n<http://e/t> <http://e/p> <http://e/s> .\n",
		"# a comment\n\n<http://e/s> <http://e/p> \"a\\\"b\\\\c\\n\\u00e9\\U0001F600\" .\n<http://e/\\u0041> <http://e/p> _:b1 .\n",
		"_:b1 <http://e/p> \"x\"@en .\n_:b1 <http://e/q> \"1\"^^<http://www.w3.org/2001/XMLSchema#int> .\n_:b1 <http://e/p> \"x\"@en .\r\n\t<http://e/s>\t<http://e/p>\t_:b1\t.\n",
		"<http://e/s> <http://e/p> \"1\" .\n<http://e/s> <http://e/p> \"1\" .\n<http://e/u> <http://e/p> \"new\" .\n<http://e/s> <http://e/p> .\n<http://e/v> <http://e/p> \"after\" .\n",
		"\"lit\" <http://e/p> <http://e/o> .\n<http://e/s> _:p <http://e/o> .\n<http://e/s> <http://e/p> \"\\q\" .\n<http://e/s> <http://e/p> <http://e/o>\n",
		"<http://e/s> <http://e/p> \"unterminated .\n<http://e/s> <http://e/p> \"x\"^^<http://e/dt .\n_: <http://e/p> \"x\" .\n<> <> <> .\n",
	} {
		f.Add(doc, uint64(0))
		f.Add(doc, uint64(0b1010))
		f.Add(doc, ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, doc string, cuts uint64) {
		var batches []string
		batch := 0 // where the current batch starts
		for i, at := 0, 0; at < len(doc); i++ {
			if i > 0 && cuts>>(i%64)&1 == 1 {
				batches, batch = append(batches, doc[batch:at]), at
			}
			if n := strings.IndexByte(doc[at:], '\n'); n >= 0 {
				at += n + 1
			} else {
				at = len(doc)
			}
		}
		batches = append(batches, doc[batch:])
		got, want := NewDict(), NewDict()
		var gotTs, wantTs []IDTriple
		for _, batch := range batches {
			terms, statements := got.Len(), len(gotTs)
			var err error
			gotTs, err = InternNTriples(got, gotTs, strings.NewReader(batch))
			g, wantErr := ReadNTriples(strings.NewReader(batch))
			if wantErr == nil {
				wantTs = InternTriples(want, wantTs, g.Triples)
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("batch %q: error %v, want %v", batch, err, wantErr)
			}
			if err != nil && (got.Len() != terms || len(gotTs) != statements) {
				t.Fatalf("batch %q failed but left %d terms and %d statements, want %d and %d", batch, got.Len(), len(gotTs), terms, statements)
			}
			if !slices.Equal(gotTs, wantTs) {
				t.Fatalf("batch %q: statements %v, want %v", batch, gotTs, wantTs)
			}
			if got.Len() != want.Len() || len(got.ids) != got.Len() {
				t.Fatalf("batch %q: %d terms (%d keys), want %d", batch, got.Len(), len(got.ids), want.Len())
			}
			for id := uint64(1); id <= uint64(want.Len()); id++ {
				k, _ := want.Key(id)
				if gk, _ := got.Key(id); gk != k {
					t.Fatalf("batch %q: term %d is %q, want %q", batch, id, gk, k)
				}
				if gid, ok := got.Lookup(k); !ok || gid != id {
					t.Fatalf("batch %q: Lookup(%q) = %d, %v, want %d", batch, k, gid, ok, id)
				}
			}
		}
	})
}

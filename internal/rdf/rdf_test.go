package rdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewLiteral("hello"), `"hello"`},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewLiteral("a\nb\tc\\d"), `"a\nb\tc\\d"`},
		{NewBlank("b0"), "_:b0"},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestTermKeyRoundTrip(t *testing.T) {
	terms := []Term{
		NewIRI("http://ex.org/a"),
		NewLiteral("42"),
		NewLiteral(""),
		NewBlank("x1"),
	}
	for _, tm := range terms {
		got := TermFromKey(tm.Key())
		if tm.Value == "" {
			continue // empty values are invalid terms; Key is still total
		}
		if got != tm {
			t.Errorf("TermFromKey(Key(%v)) = %v", tm, got)
		}
	}
}

func TestTermKeyDistinguishesKinds(t *testing.T) {
	iri := NewIRI("x")
	lit := NewLiteral("x")
	bn := NewBlank("x")
	if iri.Key() == lit.Key() || iri.Key() == bn.Key() || lit.Key() == bn.Key() {
		t.Errorf("keys collide across kinds: %q %q %q", iri.Key(), lit.Key(), bn.Key())
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := &Graph{}
	g.Add(
		T(NewIRI("http://ex.org/p1"), TypeTerm, NewIRI("http://ex.org/Product")),
		T(NewIRI("http://ex.org/p1"), NewIRI("http://ex.org/label"), NewLiteral("widget \"deluxe\"\nmodel")),
		T(NewBlank("o1"), NewIRI("http://ex.org/price"), NewLiteral("42.5")),
	)
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	got, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if !reflect.DeepEqual(got.Triples, g.Triples) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got.Triples, g.Triples)
	}
}

func TestNTriplesRoundTripQuick(t *testing.T) {
	// Property: any literal value survives a write/read round trip.
	f := func(s string) bool {
		if !validUTF8NoControl(s) {
			return true
		}
		g := &Graph{}
		g.Add(T(NewIRI("http://e/s"), NewIRI("http://e/p"), NewLiteral(s)))
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		got, err := ReadNTriples(&buf)
		if err != nil {
			return false
		}
		return len(got.Triples) == 1 && got.Triples[0].Object.Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func validUTF8NoControl(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || (r < 0x20 && r != '\n' && r != '\r' && r != '\t') {
			return false
		}
	}
	return true
}

func TestNTriplesParsesForeignForms(t *testing.T) {
	in := strings.Join([]string{
		"# a comment",
		"",
		`<http://e/s> <http://e/p> "x"@en .`,
		`<http://e/s> <http://e/p> "12"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		`_:b1 <http://e/p> <http://e/o> .`,
	}, "\n")
	g, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if g.Len() != 3 {
		t.Fatalf("got %d triples, want 3", g.Len())
	}
	if g.Triples[0].Object != NewLiteral("x") {
		t.Errorf("language tag not dropped: %v", g.Triples[0].Object)
	}
	if g.Triples[1].Object != NewLiteral("12") {
		t.Errorf("datatype not dropped: %v", g.Triples[1].Object)
	}
	if g.Triples[2].Subject != NewBlank("b1") {
		t.Errorf("blank node subject: %v", g.Triples[2].Subject)
	}
}

func TestNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> "x"`,            // missing dot
		`<http://e/s> <http://e/p .`,               // unterminated IRI
		`<http://e/s> <http://e/p> "x .`,           // unterminated literal
		`<http://e/s> "lit" <http://e/o> .`,        // literal property
		`<http://e/s> _:p <http://e/o> .`,          // blank-node property
		`"lit" <http://e/p> <http://e/o> .`,        // literal subject
		`<http://e/s> <http://e/p> "a\x" .`,        // unknown ECHAR
		`<http://e/s> <http://e/p> "a\u12" .`,      // short UCHAR
		`<http://e/s> <http://e/p> "a\uD800" .`,    // surrogate UCHAR
		`<http://e/s> <http://e/p> "\U00110000" .`, // UCHAR beyond Unicode
		`<http://e/s\n> <http://e/p> "x" .`,        // ECHAR in an IRI
		`<http://e/s> <http://e/p> "x\" .`,         // escaped closing quote
		`<http://e/s> <http://e/p> "x\`,            // dangling escape
	}
	for _, line := range bad {
		if _, err := ReadNTriples(strings.NewReader(line)); err == nil {
			t.Errorf("ReadNTriples(%q) succeeded, want error", line)
		}
	}
}

// TestNTriplesEscapes: every ECHAR reads in a literal and UCHAR reads in
// literals and IRIs; WriteNTriples writes the characters IRIREF forbids as
// UCHAR, so its output reads back.
func TestNTriplesEscapes(t *testing.T) {
	line := `<http://e/s\U0000003E> <http://e/p> "\t\b\n\r\f\"\'\\ é\U0001F600" .`
	g, err := ReadNTriples(strings.NewReader(line))
	if err != nil {
		t.Fatalf("ReadNTriples(%q): %v", line, err)
	}
	want := T(NewIRI("http://e/s>"), NewIRI("http://e/p"), NewLiteral("\t\b\n\r\f\"'\\ é😀"))
	if g.Len() != 1 || g.Triples[0] != want {
		t.Fatalf("ReadNTriples(%q) = %v, want %v", line, g.Triples, want)
	}
	iri := NewIRI("http://e/a b>\"{}|^`\\<\x00é")
	if got, want := iri.String(), "<http://e/a\\u0020b\\u003E\\u0022\\u007B\\u007D\\u007C\\u005E\\u0060\\u005C\\u003C\\u0000é>"; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	g.Add(T(iri, NewIRI("http://e/p"), NewBlank("b")))
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil || !reflect.DeepEqual(back, g) {
		t.Errorf("round trip = %v, %v; want %v", back, err, g)
	}
}

func TestGraphProperties(t *testing.T) {
	g := &Graph{}
	p := NewIRI("http://e/p")
	q := NewIRI("http://e/q")
	g.Add(
		T(NewIRI("http://e/s1"), p, NewLiteral("1")),
		T(NewIRI("http://e/s2"), p, NewLiteral("2")),
		T(NewIRI("http://e/s1"), q, NewLiteral("3")),
	)
	props := g.Properties()
	if props["http://e/p"] != 2 || props["http://e/q"] != 1 {
		t.Errorf("Properties() = %v", props)
	}
}

// The by-ID readers take no lock: while writers add terms, a reader that
// observed length n must find every ID up to n complete — key, ID-string
// and cached number — whichever backing array was current when it looked.
// The window is the republish of a grown array, so the test runs many small
// dictionaries, each growing a dozen times. Under -race it also checks the
// publish protocol's ordering.
func TestDictLockFreeReadersSeeWholeEntries(t *testing.T) {
	const rounds, writers, perWriter = 150, 2, 600
	for round := 0; round < rounds && !t.Failed(); round++ {
		d := NewDict()
		done := make(chan struct{})
		var wg, rg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					// Every third key collides across writers: Add's two paths.
					k := i*writers + w
					if i%3 == 0 {
						k = i * writers
					}
					d.Add("L" + strconv.Itoa(k))
				}
			}(w)
		}
		check := func() {
			n := uint64(d.Len())
			for id := n; id > 0 && id+8 > n; id-- {
				idStr, ok := d.IDString(id)
				if !ok || idStr != string(binary.AppendUvarint(nil, id)) {
					t.Errorf("IDString(%d) = %q, %v below observed length %d", id, idStr, ok, n)
					return
				}
				key, ok := d.Lex(idStr)
				if !ok || len(key) < 2 || key[0] != 'L' {
					t.Errorf("Lex(%d) = %q, %v below observed length %d", id, key, ok, n)
					return
				}
				want, _ := strconv.ParseFloat(key[1:], 64)
				if f, ok := d.NumericIDString(idStr); !ok || f != want {
					t.Errorf("NumericIDString(%d) = %v, %v for key %q", id, f, ok, key)
					return
				}
			}
			if _, ok := d.IDString(n + writers*perWriter); ok {
				t.Errorf("IDString beyond every possible length succeeded")
			}
		}
		for r := 0; r < 2; r++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				for {
					select {
					case <-done:
						check()
						return
					default:
						check()
					}
				}
			}()
		}
		wg.Wait()
		close(done)
		rg.Wait()
		if got, want := d.Len(), writers*perWriter-perWriter/3; got != want {
			t.Errorf("Len = %d, want %d distinct terms", got, want)
		}
		for id := uint64(1); id <= uint64(d.Len()); id++ {
			key, _ := d.Key(id)
			if back, ok := d.Lookup(key); !ok || back != id {
				t.Errorf("Lookup(Key(%d)) = %d, %v", id, back, ok)
			}
		}
	}
}

// ReadID accepts exactly the canonical uvarints of IDs up to its bound and
// reads one off the front of longer input; Lex and NumericIDString take
// only a whole ID-string.
func TestReadID(t *testing.T) {
	const all = 1<<64 - 1
	for _, tc := range []struct {
		s      string
		maxID  uint64
		id     uint64
		n      int // 0 when rejected
		wantOK bool
	}{
		{"\x00", 0, 0, 1, true},
		{"\x01", 1, 1, 1, true},
		{"\x7f", 127, 127, 1, true},
		{"\x80\x01", 128, 128, 2, true},
		{"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", all, all, 10, true},
		{"\x01\x00", 1, 1, 1, true},
		{"\x01", 0, 0, 0, false},
		{"\x80\x01", 127, 0, 0, false},
		{"", all, 0, 0, false},
		{MissingIDString, all, 0, 0, false},
		{"\x80\x00", all, 0, 0, false},
		{"\x81\x00", all, 0, 0, false},
		{"\x80\x80", all, 0, 0, false},
		{"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", all, 0, 0, false},
		{"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x81\x00", all, 0, 0, false},
	} {
		id, n, err := ReadID(tc.s, tc.maxID)
		if (err == nil) != tc.wantOK || id != tc.id || n != tc.n {
			t.Errorf("ReadID(%q, %d) = %d, %d, %v; want %d, %d, ok %v", tc.s, tc.maxID, id, n, err, tc.id, tc.n, tc.wantOK)
		}
		if bid, bn, berr := ReadID([]byte(tc.s), tc.maxID); bid != id || bn != n || (berr == nil) != (err == nil) {
			t.Errorf("ReadID(%q) on bytes = %d, %d, %v; on a string %d, %d, %v", tc.s, bid, bn, berr, id, n, err)
		}
	}
	for id := range uint64(1 << 15) {
		s := string(binary.AppendUvarint(nil, id))
		if got, n, err := ReadID(s, id); err != nil || got != id || n != len(s) {
			t.Fatalf("ReadID(%q) = %d, %d, %v; want %d", s, got, n, err, id)
		}
	}
	d := NewDict()
	d.Add("L1.5")
	for _, s := range []string{"\x01\x00", "\x81\x00", "\x02", MissingIDString} {
		if key, ok := d.Lex(s); ok {
			t.Errorf("Lex(%q) = %q, want rejected", s, key)
		}
		if f, ok := d.NumericIDString(s); ok {
			t.Errorf("NumericIDString(%q) = %v, want rejected", s, f)
		}
	}
	if f, ok := d.NumericIDString("\x01"); !ok || f != 1.5 {
		t.Errorf("NumericIDString(\"\\x01\") = %v, %v; want 1.5", f, ok)
	}
	// Callers hand Lex lexical values too; rejecting one allocates nothing.
	for _, s := range []string{"é", "\xff\xff\x7f", "\x81\x00"} {
		if n := testing.AllocsPerRun(100, func() { d.Lex(s) }); n != 0 {
			t.Errorf("Lex(%q) allocates %v times", s, n)
		}
	}
}

// A new term costs one copy of its key and ID-string, in one allocation,
// and the dictionary's amortised growth, whether added by key or by kind
// and lexical form; a non-numeric literal allocates no strconv.NumError,
// and AddTerm of a known term allocates nothing.
func TestDictAddAllocs(t *testing.T) {
	d := NewDict()
	// IDs from 128 up take two bytes.
	for i := range 4096 {
		d.Add("Ipad" + strconv.Itoa(i))
	}
	for _, prefix := range []string{"Ihttp://e/", "Lword ", "L+x", "Lz"} {
		keys := make([]string, 2002)
		for i := range keys {
			keys[i] = prefix + strconv.Itoa(1e6+i)
		}
		i := 0
		if n := testing.AllocsPerRun(1000, func() { d.Add(keys[i]); i++ }); n > 1.1 {
			t.Errorf("Add(%q...) allocates %v times per new term, want 1 plus growth", prefix, n)
		}
		kind := TermFromKey(prefix).Kind
		if n := testing.AllocsPerRun(1000, func() { d.AddTerm(kind, keys[i][1:]); i++ }); n > 1.1 {
			t.Errorf("AddTerm(%v, %q...) allocates %v times per new term, want 1 plus growth", kind, prefix[1:], n)
		}
		if n := testing.AllocsPerRun(1000, func() { d.AddTerm(kind, keys[0][1:]) }); n != 0 {
			t.Errorf("AddTerm(%v, %q) of a known term allocates %v times", kind, keys[0][1:], n)
		}
	}
}

// TestTermWriterMatchesReplacers: the term writer's escape table writes
// every byte, alone and among others, as the strings.Replacer escapers it
// replaced wrote it: ECHARs in literals, UCHARs for what IRIREF forbids.
func TestTermWriterMatchesReplacers(t *testing.T) {
	literal := strings.NewReplacer(`"`, `\"`, `\`, `\\`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	var pairs []string
	for c := range byte(0x80) {
		if c <= ' ' || strings.IndexByte("<>\"{}|^`\\", c) >= 0 {
			pairs = append(pairs, string(c), fmt.Sprintf(`\u%04X`, c))
		}
	}
	iri := strings.NewReplacer(pairs...)
	values := []string{"", "plain", "é😀", "a\"b\\c\nd\re\tf", "x{y}|z^`<>"}
	for c := range 256 {
		values = append(values, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"b")
	}
	for _, v := range values {
		for _, tc := range []struct {
			term Term
			want string
		}{
			{NewIRI(v), "<" + iri.Replace(v) + ">"},
			{NewLiteral(v), `"` + literal.Replace(v) + `"`},
			{NewBlank(v), "_:" + v},
		} {
			if got := tc.term.String(); got != tc.want {
				t.Errorf("%v %q written as %q, want %q", tc.term.Kind, v, got, tc.want)
			}
		}
	}
}

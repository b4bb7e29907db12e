package rdf

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// NullID is the reserved term ID for the relational NULL. Its ID-string is
// uvarint(0) = "\x00", which is byte-identical to algebra.Null, so NULL
// detection and left-outer NULL-extension work unchanged in the ID plane.
const NullID uint64 = 0

// nullIDString is uvarint(NullID): the single zero byte, == algebra.Null.
const nullIDString = "\x00"

// MissingIDString is the ID-string returned for terms absent from the
// dictionary (query constants that never occur in the data). A lone uvarint
// continuation byte is never a valid encoding, so it can never equal any
// real term's ID-string — comparisons against it simply never match.
const MissingIDString = "\x80"

// dictEntry is one dictionary slot: the lexical key, its interned
// ID-string, and a lazily parsed numeric value for the aggregation fast
// path.
type dictEntry struct {
	key   string // rdf.Term.Key form
	idStr string // uvarint(id) bytes, interned once
	num   float64
	isNum bool
}

// Dict is an append-only, concurrency-safe dictionary mapping RDF terms (in
// Term.Key form) to dense integer IDs and back. IDs start at 1; ID 0 is
// reserved for NULL. The "ID-string" of a term is the raw uvarint encoding
// of its ID stored in a Go string — self-delimiting, so multi-part keys can
// concatenate ID-strings without separators, and the NULL ID-string is
// exactly algebra.Null.
//
// A store keeps one Dict for its whole life and interns every batch it is
// given into it in term-of-first-use order (InternTriples, InternNTriples),
// so IDs are deterministic for a given statement sequence; each load
// attaches it to engine.Dataset. At query time every map task checks the
// fields it decodes against Len (ReadID), and filters, aggregates and the
// final decode read terms back through Lex and NumericIDString, so the
// by-ID readers (Key, IDString, Lex, NumericIDString, Len) take no lock.
//
// Publish protocol: entries are append-only and immutable once written,
// with one exception: the terms of a document that fails to parse are
// dropped again (truncate, from InternNTriples). That is safe only because
// no reader can hold an ID the failed batch assigned: a store interns
// under its write lock, and queries hold its read lock. A writer, holding
// mu, appends the entry, stores the backing array into view if the append
// moved it, and only then stores the new length into n. A reader loads n
// first and view second: sync/atomic operations are sequentially
// consistent, so the array it gets is the one current when that length
// was published or a later one, and a later array holds a copy of every
// earlier entry. The reader therefore sees every entry below the length
// it observed, fully written. By-key access (Add, AddTerm, Lookup,
// KeyString) goes through the ids map and keeps the mutex; a batch
// (InternTriples, InternNTriples) holds it throughout.
type Dict struct {
	mu      sync.RWMutex
	ids     map[string]uint64
	entries []dictEntry // entries[id-1] for id ≥ 1; written under mu
	scratch []byte      // AddTerm's key; written under mu

	// view is the entries backing array at full capacity, republished only
	// when append reallocates; n is the published length.
	view atomic.Pointer[[]dictEntry]
	n    atomic.Uint64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint64)}
}

// Add returns the ID for the term key, assigning the next dense ID if the
// key is new. Safe for concurrent use.
func (d *Dict) Add(key string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[key]; ok {
		return id
	}
	return d.add(key)
}

// AddTerm returns the ID of the term of kind kind and lexical form lex,
// assigning the next dense ID if the term is new: Add of its Term.Key,
// without building the key. lex may be a view of a buffer the caller
// reuses; only a term new to d is copied. Safe for concurrent use.
func (d *Dict) AddTerm(kind TermKind, lex string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addTerm(kind, lex)
}

// addTerm is AddTerm for a caller holding mu.
func (d *Dict) addTerm(kind TermKind, lex string) uint64 {
	d.scratch = append(append(d.scratch[:0], keyTag(kind)), lex...)
	key := unsafe.String(unsafe.SliceData(d.scratch), len(d.scratch))
	if id, ok := d.ids[key]; ok {
		return id
	}
	return d.add(key)
}

// add assigns key, absent from d, the next dense ID and publishes its
// entry. The entry's key and ID-string are one copy: key may be a view.
// Callers hold mu.
func (d *Dict) add(key string) uint64 {
	id := uint64(len(d.entries)) + 1
	var idBuf [binary.MaxVarintLen64]byte
	idStr := binary.AppendUvarint(idBuf[:0], id)
	var b strings.Builder
	b.Grow(len(key) + len(idStr))
	b.WriteString(key)
	b.Write(idStr)
	both := b.String()
	e := dictEntry{key: both[:len(key)], idStr: both[len(key):]}
	// Cache the parsed numeric value for literal terms so SUM/AVG never
	// re-parse the lexical form per row.
	e.num, e.isNum = KeyNumber(e.key)
	d.ids[e.key] = id
	grew := len(d.entries) == cap(d.entries)
	d.entries = append(d.entries, e)
	if grew {
		full := d.entries[:cap(d.entries)]
		d.view.Store(&full)
	}
	d.n.Store(id)
	return id
}

// truncate drops every term with an ID above n: the one exception to
// append-only, which undoes the interns of a batch that failed
// (InternNTriples). Its caller guarantees that no reader holds or can be
// handed such an ID, so no reader sees an entry change, and holds mu.
func (d *Dict) truncate(n int) {
	if n >= len(d.entries) {
		return
	}
	for _, e := range d.entries[n:] {
		delete(d.ids, e.key)
	}
	clear(d.entries[n:])
	d.entries = d.entries[:n]
	d.n.Store(uint64(n))
}

// mayParseFloat is false for strings strconv.ParseFloat rejects by their
// first byte after a sign (a number starts with a digit or '.', the special
// values with "inf" or "nan"), sparing them the error ParseFloat allocates.
func mayParseFloat(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	return len(s) > 0 && ('0' <= s[0] && s[0] <= '9' || s[0] == '.' || s[0]|0x20 == 'i' || s[0]|0x20 == 'n')
}

// entry returns the published entry for id, or nil for NULL and IDs at or
// beyond the published length.
func (d *Dict) entry(id uint64) *dictEntry {
	if id == 0 || id > d.n.Load() {
		return nil
	}
	return &(*d.view.Load())[id-1]
}

// AddString returns the interned ID-string for the term key, assigning the
// next dense ID if the key is new.
func (d *Dict) AddString(key string) string {
	return d.entry(d.Add(key)).idStr
}

// Lookup returns the ID for a term key, or false if the key was never
// added.
func (d *Dict) Lookup(key string) (uint64, bool) {
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	return id, ok
}

// Key returns the lexical Term.Key form for an ID. ID 0 (NULL) and unknown
// IDs return false.
func (d *Dict) Key(id uint64) (string, bool) {
	e := d.entry(id)
	if e == nil {
		return "", false
	}
	return e.key, true
}

// IDString returns the interned uvarint ID-string for an ID. NULL (ID 0)
// yields "\x00"; unknown IDs return false.
func (d *Dict) IDString(id uint64) (string, bool) {
	if id == 0 {
		return nullIDString, true
	}
	e := d.entry(id)
	if e == nil {
		return "", false
	}
	return e.idStr, true
}

// KeyString translates a lexical term key into its interned ID-string. Keys
// absent from the dictionary (query constants that never occur in the
// data) map to MissingIDString, which matches no data value.
func (d *Dict) KeyString(key string) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[key]; ok {
		return d.entries[id-1].idStr
	}
	return MissingIDString
}

// Lex decodes an ID-string back to the lexical Term.Key form. The NULL
// ID-string decodes to "" with ok=true (callers emit algebra.Null
// themselves when needed); anything ReadID rejects, or a string with bytes
// after its ID-string, returns false.
func (d *Dict) Lex(idStr string) (string, bool) {
	e, ok := d.idEntry(idStr)
	if e == nil {
		return "", ok
	}
	return e.key, true
}

// NumericIDString returns the cached numeric value of the literal an
// ID-string denotes — the SUM/AVG fast path. Returns false for NULL,
// non-numeric terms and strings Lex rejects.
func (d *Dict) NumericIDString(idStr string) (float64, bool) {
	e, _ := d.idEntry(idStr)
	if e == nil {
		return 0, false
	}
	return e.num, e.isNum
}

// idEntry resolves a whole ID-string to its entry: nil with ok=true for
// NULL, false for anything ReadID rejects or trailing bytes.
func (d *Dict) idEntry(idStr string) (*dictEntry, bool) {
	id, n, err := ReadID(idStr, d.n.Load())
	if err != nil || n != len(idStr) {
		return nil, false
	}
	return d.entry(id), true
}

// ReadID reads the ID-string at the front of b and returns its term ID and
// length. An ID-string is the canonical uvarint of an ID — none of the
// overlong forms binary.Uvarint accepts, so a term has exactly one — and a
// dictionary holds the IDs 0..maxID (Len); anything else is an error. It is
// the one reader of the ID plane, so a field a decoder returns as a view of
// its record equals the term's interned ID-string.
func ReadID[B ~string | ~[]byte](b B, maxID uint64) (uint64, int, error) {
	var id uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		id |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			// A last byte of 0 is overlong; a tenth byte above 1 overflows.
			if i > 0 && c == 0 || i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, 0, errBadID
			}
			if id > maxID {
				return 0, 0, errUnknownID
			}
			return id, i + 1, nil
		}
	}
	return 0, 0, errBadID
}

// ReadID's failures allocate nothing: Lex and NumericIDString turn them
// into false, and callers may hand them any string.
var (
	errBadID     = errors.New("rdf: malformed id-string")
	errUnknownID = errors.New("rdf: unknown term id")
)

// Len returns the number of distinct terms in the dictionary (excluding the
// reserved NULL ID).
func (d *Dict) Len() int { return int(d.n.Load()) }

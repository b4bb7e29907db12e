package rdf

import (
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
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
// The dictionary is built once at dataset-load time (in term-of-first-use
// order over the triple stream, so IDs are deterministic for a given graph)
// and attached to engine.Dataset; at query time every map task decodes every
// field through it, so the by-ID readers (Key, IDString, Lex,
// NumericIDString, Len) take no lock.
//
// Publish protocol: entries are append-only and immutable once written. A
// writer, holding mu, appends the entry, stores the backing array into view
// if the append moved it, and only then stores the new length into n.
// A reader loads n first and view second: sync/atomic operations are
// sequentially consistent, so the array it gets is the one current when
// that length was published or a later one, and a later array holds a copy
// of every earlier entry. The reader therefore sees every entry below the
// length it observed, fully written. By-key access (Add, Lookup, KeyString)
// goes through the ids map and keeps the mutex.
type Dict struct {
	mu      sync.RWMutex
	ids     map[string]uint64
	entries []dictEntry // entries[id-1] for id ≥ 1; written under mu

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
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[key]; ok {
		return id
	}
	id = uint64(len(d.entries)) + 1
	e := dictEntry{key: key, idStr: string(binary.AppendUvarint(nil, id))}
	// Cache the parsed numeric value for literal terms so SUM/AVG never
	// re-parse the lexical form per row.
	if len(key) > 0 && key[0] == 'L' {
		if f, err := strconv.ParseFloat(key[1:], 64); err == nil {
			e.num, e.isNum = f, true
		}
	}
	d.ids[key] = id
	grew := len(d.entries) == cap(d.entries)
	d.entries = append(d.entries, e)
	if grew {
		full := d.entries[:cap(d.entries)]
		d.view.Store(&full)
	}
	d.n.Store(id)
	return id
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
// themselves when needed); malformed or unknown ID-strings return false.
func (d *Dict) Lex(idStr string) (string, bool) {
	id, n := binary.Uvarint([]byte(idStr))
	if n != len(idStr) || n <= 0 {
		return "", false
	}
	if id == 0 {
		return "", true
	}
	e := d.entry(id)
	if e == nil {
		return "", false
	}
	return e.key, true
}

// NumericIDString returns the cached numeric value of the literal an
// ID-string denotes — the SUM/AVG fast path. Returns false for NULL,
// non-numeric terms and malformed ID-strings.
func (d *Dict) NumericIDString(idStr string) (float64, bool) {
	id, n := binary.Uvarint([]byte(idStr))
	if n != len(idStr) || n <= 0 || id == 0 {
		return 0, false
	}
	e := d.entry(id)
	if e == nil {
		return 0, false
	}
	return e.num, e.isNum
}

// Len returns the number of distinct terms in the dictionary (excluding the
// reserved NULL ID).
func (d *Dict) Len() int { return int(d.n.Load()) }

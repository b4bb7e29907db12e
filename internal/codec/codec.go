// Package codec provides the compact binary record formats flowing through
// the MapReduce engine: length-prefixed string lists ("tuples", the
// relational engines' rows) plus the primitives the triplegroup codecs in
// package ntga are built from. Records are self-delimiting so files can be
// split at record boundaries, mirroring Hadoop Writables.
package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// AppendString appends a uvarint-length-prefixed string to buf.
//
//rapid:hot
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString reads a string written by AppendString, returning the value
// and the remaining buffer.
func ReadString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return "", nil, fmt.Errorf("codec: bad string length prefix")
	}
	buf = buf[k:]
	if uint64(len(buf)) < n {
		return "", nil, fmt.Errorf("codec: truncated string: need %d bytes, have %d", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

// AppendUvarint appends a uvarint to buf.
//
//rapid:hot
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// ReadUvarint reads a uvarint, returning the value and the remaining
// buffer.
func ReadUvarint(buf []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, fmt.Errorf("codec: bad uvarint")
	}
	return v, buf[k:], nil
}

// Tuple is a row of column values. Stored tables, intermediates and shuffle
// values are ID-tuples: each field is a term's uvarint ID-string (see
// rdf.Dict) and NULL is the ID-string of ID 0, which is the same byte as
// algebra.Null (EncodeIDs / DecodeIDTuple). Result rows, past the final
// aggregation's decode boundary, hold RDF terms in Term.Key form and NULLs
// as algebra.Null (Encode / DecodeTuple).
type Tuple []string

// EncodedLen returns the exact size of the tuple's Encode output.
func (t Tuple) EncodedLen() int {
	n := uvarintLen(uint64(len(t)))
	for _, f := range t {
		n += uvarintLen(uint64(len(f))) + len(f)
	}
	return n
}

// AppendEncode appends the tuple's encoding to buf and returns the extended
// slice, avoiding the intermediate allocation of Encode in hot emit paths.
//
//rapid:hot
func (t Tuple) AppendEncode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, f := range t {
		buf = AppendString(buf, f)
	}
	return buf
}

// Encode serialises the tuple.
func (t Tuple) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedLen()))
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeTuple parses a tuple written by Encode.
func DecodeTuple(buf []byte) (Tuple, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, err
	}
	// Every field takes at least one length-prefix byte, so an arity beyond
	// the remaining buffer is malformed — reject it before allocating.
	if n > uint64(len(buf)) {
		return nil, fmt.Errorf("codec: tuple arity %d exceeds %d remaining bytes", n, len(buf))
	}
	t := make(Tuple, n)
	for i := range t {
		t[i], buf, err = ReadString(buf)
		if err != nil {
			return nil, fmt.Errorf("codec: tuple field %d: %w", i, err)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after tuple", len(buf))
	}
	return t, nil
}

// Concat returns a new tuple appending other's fields to t's.
func (t Tuple) Concat(other Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(other))
	out = append(out, t...)
	return append(out, other...)
}

// Interner resolves term IDs to their canonical interned ID-strings, so
// decoded tuples share one string per distinct term instead of allocating a
// copy per field. *rdf.Dict implements it.
type Interner interface {
	// IDString returns the interned uvarint ID-string for a term ID.
	IDString(id uint64) (string, bool)
}

// EncodedIDsLen returns the exact size of the tuple's EncodeIDs output.
// Every field must be an ID-string.
func (t Tuple) EncodedIDsLen() int {
	n := uvarintLen(uint64(len(t)))
	for _, f := range t {
		n += len(f)
	}
	return n
}

// AppendEncodeIDs appends the ID-plane encoding of the tuple to buf: a
// uvarint arity followed by the fields' raw bytes. ID-strings are
// self-delimiting uvarints, so no per-field length prefix is needed — this
// is what makes the dictionary plane's rows and shuffle keys compact.
//
//rapid:hot
func (t Tuple) AppendEncodeIDs(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, f := range t {
		buf = append(buf, f...)
	}
	return buf
}

// EncodeIDs serialises an ID-plane tuple (see AppendEncodeIDs).
func (t Tuple) EncodeIDs() []byte {
	return t.AppendEncodeIDs(make([]byte, 0, t.EncodedIDsLen()))
}

// DecodeIDTuple parses a tuple written by EncodeIDs, resolving each field
// to its interned ID-string through in. The result is a fresh tuple.
func DecodeIDTuple(buf []byte, in Interner) (Tuple, error) {
	return AppendDecodeIDTuple(nil, buf, in)
}

// AppendDecodeIDTuple parses a tuple written by EncodeIDs and appends its
// fields to dst, resolving each to its interned ID-string through in. A
// map task that finishes with one record before decoding the next passes
// its own scratch as dst[:0] and pays for the storage once. On error dst
// comes back unextended.
//
//rapid:hot
func AppendDecodeIDTuple(dst Tuple, buf []byte, in Interner) (Tuple, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return dst, err
	}
	// Every field takes at least one byte, so an arity beyond the remaining
	// buffer is malformed — reject it before allocating.
	if n > uint64(len(buf)) {
		return dst, decodeErr("id tuple arity %d exceeds %d remaining bytes", n, len(buf))
	}
	out := slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		var f string
		f, buf, err = ReadIDValue(buf, in)
		if err != nil {
			return dst, decodeErr("id tuple field %d: %w", i, err)
		}
		out = append(out, f)
	}
	if len(buf) != 0 {
		return dst, decodeErr("%d trailing bytes after id tuple", len(buf))
	}
	return out, nil
}

// decodeErr builds a decode failure. It is a function of its own so the
// //rapid:hot decoders hold no formatting call: malformed input ends the
// task, so it runs at most once.
func decodeErr(format string, args ...any) error {
	return fmt.Errorf("codec: "+format, args...)
}

// ReadIDValue reads one uvarint term ID from buf and returns its interned
// ID-string and the remaining buffer.
func ReadIDValue(buf []byte, in Interner) (string, []byte, error) {
	id, rest, err := ReadUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	s, ok := in.IDString(id)
	if !ok {
		return "", nil, fmt.Errorf("codec: unknown term id %d", id)
	}
	return s, rest, nil
}

// Package codec provides the compact binary record formats flowing through
// the MapReduce engine: length-prefixed string lists ("tuples", the
// relational engines' rows) plus the primitives the triplegroup codecs in
// package ntga are built from. Records are self-delimiting so files can be
// split at record boundaries, mirroring Hadoop Writables.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"rapidanalytics/internal/rdf"
)

// AppendString appends a uvarint-length-prefixed string to buf.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString reads a string written by AppendString, returning its bytes,
// which alias buf, and the remaining buffer.
func readString(buf []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errors.New("codec: bad string length prefix")
	}
	buf = buf[k:]
	if uint64(len(buf)) < n {
		return nil, nil, decodeErr("truncated string: need %d bytes, have %d", n, len(buf))
	}
	return buf[:n], buf[n:], nil
}

// AppendUvarint appends a uvarint to buf.
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

// DecodeTuple parses a tuple written by Encode into a fresh tuple whose
// fields alias buf (see AppendDecodeTuple).
func DecodeTuple(buf []byte) (Tuple, error) {
	t, err := AppendDecodeTuple(nil, buf)
	if err == nil && t == nil {
		t = Tuple{}
	}
	return t, err
}

// AppendDecodeTuple parses a tuple written by Encode and appends its fields
// to dst — the lexical twin of AppendDecodeIDTuple. The fields are views of
// buf, not copies: they alias its bytes, so the caller keeps buf unmodified
// for as long as it uses them. A dfs record is immutable and outlives its
// file, so fields decoded from one may be kept. A decode allocates nothing
// beyond growing dst; a reader of many rows passes one flat dst for all of
// them and slices its rows out. On error dst comes back unextended.
func AppendDecodeTuple(dst Tuple, buf []byte) (Tuple, error) {
	n, rest, err := ReadUvarint(buf)
	if err != nil {
		return dst, err
	}
	// Every field takes at least one length-prefix byte, so an arity beyond
	// the remaining buffer is malformed — reject it before allocating.
	if n > uint64(len(rest)) {
		return dst, decodeErr("tuple arity %d exceeds %d remaining bytes", n, len(rest))
	}
	// every field is a substring of this view of buf
	s := unsafe.String(unsafe.SliceData(buf), len(buf))
	out := slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		var f []byte
		if f, rest, err = readString(rest); err != nil {
			return dst, decodeErr("tuple field %d: %w", i, err)
		}
		end := len(buf) - len(rest)
		out = append(out, s[end-len(f):end])
	}
	if len(rest) != 0 {
		return dst, decodeErr("%d trailing bytes after tuple", len(rest))
	}
	return out, nil
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

// DecodeIDTuple parses a tuple written by EncodeIDs into a fresh tuple
// whose fields alias buf (see AppendDecodeIDTuple).
func DecodeIDTuple(buf []byte, d *rdf.Dict) (Tuple, error) {
	return AppendDecodeIDTuple(nil, buf, d)
}

// AppendDecodeIDTuple parses a tuple written by EncodeIDs and appends its
// fields to dst. Each field is an ID-string of d (rdf.ReadID) and comes
// back as a view of buf, as AppendDecodeTuple's fields do: it equals the
// term's interned ID-string, and the caller keeps buf unmodified for as
// long as it uses it. A map task that finishes with one record before
// decoding the next passes its own scratch as dst[:0] and pays for the
// storage once. On error dst comes back unextended.
func AppendDecodeIDTuple(dst Tuple, buf []byte, d *rdf.Dict) (Tuple, error) {
	n, rest, err := ReadUvarint(buf)
	if err != nil {
		return dst, err
	}
	// Every field takes at least one byte, so an arity beyond the remaining
	// buffer is malformed — reject it before allocating.
	if n > uint64(len(rest)) {
		return dst, decodeErr("id tuple arity %d exceeds %d remaining bytes", n, len(rest))
	}
	// every field is a substring of this view of buf
	s := unsafe.String(unsafe.SliceData(buf), len(buf))
	off := len(buf) - len(rest)
	maxID := uint64(d.Len())
	out := slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		_, k, err := rdf.ReadID(s[off:], maxID)
		if err != nil {
			return dst, decodeErr("id tuple field %d: %w", i, err)
		}
		out = append(out, s[off:off+k])
		off += k
	}
	if off != len(s) {
		return dst, decodeErr("%d trailing bytes after id tuple", len(s)-off)
	}
	return out, nil
}

// decodeErr builds a decode failure. It is a function of its own so the
// per-record decoders hold no formatting call: malformed input ends the
// task, so it runs at most once.
func decodeErr(format string, args ...any) error {
	return fmt.Errorf("codec: "+format, args...)
}

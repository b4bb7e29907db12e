package codec

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"rapidanalytics/internal/rdf"
)

// fuzzDict holds the term IDs 0..300, so fuzzed ID-strings take one and two
// bytes and some name IDs beyond it.
func fuzzDict() *rdf.Dict {
	d := rdf.NewDict()
	for i := range 300 {
		d.Add("L" + strconv.Itoa(i))
	}
	return d
}

// decodeIDTupleRef is AppendDecodeIDTuple as it was before its fields
// became views of the record: each field resolves through Dict.IDString to
// the term's interned ID-string. The field's bytes must be that string, so
// an overlong uvarint is rejected. It is the reference FuzzDecodeIDTuple
// and FuzzAppendDecodeIDTuple hold the views to.
func decodeIDTupleRef(dst Tuple, buf []byte, d *rdf.Dict) (Tuple, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return dst, err
	}
	if n > uint64(len(buf)) {
		return dst, decodeErr("id tuple arity %d exceeds %d remaining bytes", n, len(buf))
	}
	out := slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		id, k := binary.Uvarint(buf)
		if k <= 0 {
			return dst, decodeErr("id tuple field %d: bad uvarint", i)
		}
		s, ok := d.IDString(id)
		if !ok || s != string(buf[:k]) {
			return dst, decodeErr("id tuple field %d: unknown or overlong term id %d", i, id)
		}
		out = append(out, s)
		buf = buf[k:]
	}
	if len(buf) != 0 {
		return dst, decodeErr("%d trailing bytes after id tuple", len(buf))
	}
	return out, nil
}

// The lexical fuzz properties are value-level: whatever decodes must
// survive a re-encode/re-decode round trip unchanged.

// FuzzReadString exercises the length-prefixed field reader the tuple
// decoders are built on.
func FuzzReadString(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendString(nil, ""))
	f.Add(AppendString(nil, "Ihttp://example.org/p"))
	f.Add(AppendString(AppendString(nil, "a"), "b"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := readString(data)
		if err != nil {
			return
		}
		if len(data)-len(rest) < len(s)+1 {
			t.Fatalf("readString consumed %d bytes for a %d-byte string", len(data)-len(rest), len(s))
		}
		s2, rest2, err := readString(AppendString(nil, string(s)))
		if err != nil || string(s2) != string(s) || len(rest2) != 0 {
			t.Fatalf("re-encode of %q: got %q, rest %d, err %v", s, s2, len(rest2), err)
		}
	})
}

func FuzzReadUvarint(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendUvarint(nil, 0))
	f.Add(AppendUvarint(nil, 127))
	f.Add(AppendUvarint(nil, 1<<40))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := ReadUvarint(data)
		if err != nil {
			return
		}
		if len(rest) >= len(data) {
			t.Fatalf("ReadUvarint consumed no bytes")
		}
		v2, rest2, err := ReadUvarint(AppendUvarint(nil, v))
		if err != nil || v2 != v || len(rest2) != 0 {
			t.Fatalf("re-encode of %d: got %d, rest %d, err %v", v, v2, len(rest2), err)
		}
	})
}

// decodeTupleCopy is AppendDecodeTuple as it was before its fields became
// views of buf: they are substrings of one string copy of the record. It is
// the reference FuzzDecodeTuple holds the views to.
func decodeTupleCopy(dst Tuple, buf []byte) (Tuple, error) {
	n, rest, err := ReadUvarint(buf)
	if err != nil {
		return dst, err
	}
	if n > uint64(len(rest)) {
		return dst, decodeErr("tuple arity %d exceeds %d remaining bytes", n, len(rest))
	}
	var s string
	if n > 0 {
		s = string(buf)
	}
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

// within reports whether s's bytes lie inside buf.
func within(s string, buf []byte) bool {
	if len(s) == 0 {
		return true
	}
	if len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(buf))
}

func FuzzDecodeTuple(f *testing.F) {
	f.Add([]byte{})
	f.Add(Tuple{}.Encode())
	f.Add(Tuple{"Ihttp://example.org/s", "L42", "\x00"}.Encode())
	f.Add(Tuple{"a"}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		tup, err := DecodeTuple(data)
		// The views equal the copying reference's fields, lie inside data
		// and leave it as it was.
		ref, rerr := decodeTupleCopy(nil, data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeTuple err = %v, copying reference err = %v", err, rerr)
		}
		if err == nil {
			assertTuplesEqual(t, tup, ref)
		}
		for i, v := range tup {
			if !within(v, data) {
				t.Fatalf("field %d %q is not a view of the record", i, v)
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("decoding changed the record: %x, was %x", data, orig)
		}
		// The append decoder onto a dirty dst agrees with DecodeTuple, leaves
		// dst's fields alone and hands dst back unextended on error.
		dst := make(Tuple, len(data)%4, 8)
		for i := range dst {
			dst[i] = "stale"
		}
		got, aerr := AppendDecodeTuple(dst, data)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("append decoder err = %v, DecodeTuple err = %v", aerr, err)
		}
		if len(got) < len(dst) {
			t.Fatalf("append decoder dropped dst fields: %d < %d", len(got), len(dst))
		}
		for i, v := range got[:len(dst)] {
			if v != "stale" {
				t.Fatalf("append decoder overwrote dst field %d with %q", i, v)
			}
		}
		if err != nil {
			if len(got) != len(dst) {
				t.Fatalf("failed decode extended dst by %d fields", len(got)-len(dst))
			}
			return
		}
		assertTuplesEqual(t, got[len(dst):], tup)
		tup2, err := DecodeTuple(tup.Encode())
		if err != nil {
			t.Fatalf("re-decode of %q: %v", tup, err)
		}
		assertTuplesEqual(t, tup, tup2)
	})
}

// The views equal the dictionary-resolving reference's fields, lie inside
// the record and leave it as it was; both reject the same inputs,
// overlong uvarints and IDs beyond the dictionary included.
func FuzzDecodeIDTuple(f *testing.F) {
	d := fuzzDict()
	f.Add([]byte{})
	f.Add(Tuple{}.EncodeIDs())
	f.Add(Tuple{string(AppendUvarint(nil, 1)), "\x00", string(AppendUvarint(nil, 300))}.EncodeIDs())
	f.Add(Tuple{string(AppendUvarint(nil, 301))}.EncodeIDs())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x02, 0x80})
	f.Add([]byte{0x02, 0x81, 0x00, 0x01}) // overlong ID 1
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		tup, err := DecodeIDTuple(data, d)
		ref, rerr := decodeIDTupleRef(nil, data, d)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeIDTuple err = %v, reference err = %v", err, rerr)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("decoding changed the record: %x, was %x", data, orig)
		}
		if err != nil {
			return
		}
		assertTuplesEqual(t, tup, ref)
		for i, v := range tup {
			if !within(v, data) {
				t.Fatalf("field %d %x is not a view of the record", i, v)
			}
		}
		tup2, err := DecodeIDTuple(tup.EncodeIDs(), d)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", tup.EncodeIDs(), err)
		}
		assertTuplesEqual(t, tup, tup2)
	})
}

func assertTuplesEqual(t *testing.T, a, b Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("tuple arity changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tuple field %d changed: %x vs %x", i, a[i], b[i])
		}
	}
}

// The append decoder must agree with the reference on every input, leave
// a dirty dst's existing fields alone, and hand dst back unextended on
// error.
func FuzzAppendDecodeIDTuple(f *testing.F) {
	d := fuzzDict()
	f.Add([]byte{}, uint8(0))
	f.Add(Tuple{}.EncodeIDs(), uint8(3))
	f.Add(Tuple{string(AppendUvarint(nil, 1)), "\x00", string(AppendUvarint(nil, 300))}.EncodeIDs(), uint8(2))
	f.Add([]byte{0x02, 0x80}, uint8(1))
	f.Add([]byte{0x01, 0x05, 0x07}, uint8(5))
	f.Add([]byte{0x01, 0x80, 0x00}, uint8(1)) // overlong NULL
	f.Fuzz(func(t *testing.T, data []byte, dirty uint8) {
		dst := make(Tuple, dirty%8, 8)
		for i := range dst {
			dst[i] = "stale"
		}
		want, wantErr := decodeIDTupleRef(nil, data, d)
		got, err := AppendDecodeIDTuple(dst, data, d)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("append decoder err = %v, reference err = %v", err, wantErr)
		}
		if len(got) < len(dst) {
			t.Fatalf("append decoder dropped dst fields: %d < %d", len(got), len(dst))
		}
		for i, v := range got[:len(dst)] {
			if v != "stale" {
				t.Fatalf("append decoder overwrote dst field %d with %x", i, v)
			}
		}
		if err != nil {
			if len(got) != len(dst) {
				t.Fatalf("failed decode extended dst by %d fields", len(got)-len(dst))
			}
			return
		}
		assertTuplesEqual(t, got[len(dst):], want)
	})
}

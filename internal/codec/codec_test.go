package codec

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTupleRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{""},
		{"a", "", "ccc"},
		{"\x00", "with\x1funit\x1eseparators", "Ihttp://e/x"},
	}
	for _, tu := range cases {
		got, err := DecodeTuple(tu.Encode())
		if err != nil {
			t.Fatalf("DecodeTuple(%v): %v", tu, err)
		}
		if !reflect.DeepEqual(got, tu) {
			t.Errorf("round trip: got %v, want %v", got, tu)
		}
	}
}

func TestTupleRoundTripQuick(t *testing.T) {
	f := func(fields []string) bool {
		tu := Tuple(fields)
		got, err := DecodeTuple(tu.Encode())
		if err != nil {
			return false
		}
		if len(got) != len(tu) {
			return false
		}
		for i := range got {
			if got[i] != tu[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0xff},                    // bad varint
		Tuple{"abc"}.Encode()[:2], // truncated
		append(Tuple{"abc"}.Encode(), 0x01, 0x02, 0x03), // trailing bytes
	}
	for _, b := range bad {
		if _, err := DecodeTuple(b); err == nil {
			t.Errorf("DecodeTuple(% x) succeeded, want error", b)
		}
	}
}

func TestPrimitives(t *testing.T) {
	buf := AppendUvarint(nil, 300)
	buf = AppendString(buf, "hello")
	v, rest, err := ReadUvarint(buf)
	if err != nil || v != 300 {
		t.Fatalf("ReadUvarint = %v, %v", v, err)
	}
	s, rest, err := readString(rest)
	if err != nil || string(s) != "hello" || len(rest) != 0 {
		t.Fatalf("readString = %q rest=%d err=%v", s, len(rest), err)
	}
}

// A decoded ID field is the record's own bytes, not the dictionary's
// interned copy: the record must outlive it.
func TestDecodeIDTupleFieldsAliasRecord(t *testing.T) {
	d := fuzzDict()
	rec := Tuple{string(AppendUvarint(nil, 200)), "\x00", string(AppendUvarint(nil, 7))}.EncodeIDs()
	tu, err := DecodeIDTuple(rec, d)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range []int{1, 3, 4} {
		if unsafe.StringData(tu[i]) != &rec[off] {
			t.Errorf("field %d %x does not start at record byte %d", i, tu[i], off)
		}
	}
	if interned, _ := d.IDString(200); unsafe.StringData(interned) == unsafe.StringData(tu[0]) {
		t.Error("field 0 is the dictionary's interned ID-string")
	}
}

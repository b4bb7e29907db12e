package ntga

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"
	"unsafe"

	"rapidanalytics/internal/codec"
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

func idStr(id uint64) string { return string(codec.AppendUvarint(nil, id)) }

// readIDRef reads one term ID and resolves it through Dict.IDString to the
// term's interned ID-string, which the bytes read must equal: an overlong
// uvarint is rejected.
func readIDRef(buf []byte, d *rdf.Dict) (string, []byte, error) {
	id, k := binary.Uvarint(buf)
	if k <= 0 {
		return "", nil, fmt.Errorf("bad uvarint")
	}
	s, ok := d.IDString(id)
	if !ok || s != string(buf[:k]) {
		return "", nil, fmt.Errorf("unknown or overlong term id %d", id)
	}
	return s, buf[k:], nil
}

// decodeTripleGroupRef and decodeAnnTGRef are the triplegroup decoders as
// they were before their fields became views of the record: every field
// resolves through the dictionary (readIDRef). They are the references
// FuzzDecodeTripleGroupIDs and FuzzDecodeAnnTGIDs hold the views to.
func decodeTripleGroupRef(buf []byte, d *rdf.Dict) (TripleGroup, []byte, error) {
	var tg TripleGroup
	var err error
	if tg.Subject, buf, err = readIDRef(buf, d); err != nil {
		return tg, nil, err
	}
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return tg, nil, err
	}
	if n > uint64(len(buf)) {
		return tg, nil, fmt.Errorf("arity %d exceeds %d remaining bytes", n, len(buf))
	}
	for range n {
		var po PO
		if po.Prop, buf, err = readIDRef(buf, d); err != nil {
			return tg, nil, err
		}
		if po.Obj, buf, err = readIDRef(buf, d); err != nil {
			return tg, nil, err
		}
		tg.Triples = append(tg.Triples, po)
	}
	return tg, buf, nil
}

func decodeAnnTGRef(buf []byte, d *rdf.Dict) (AnnTG, error) {
	var a AnnTG
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return a, err
	}
	if n > uint64(len(buf)) {
		return a, fmt.Errorf("arity %d exceeds %d remaining bytes", n, len(buf))
	}
	for range n {
		s, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return a, err
		}
		tg, rest, err := decodeTripleGroupRef(rest, d)
		if err != nil {
			return a, err
		}
		a.Stars, a.TGs, buf = append(a.Stars, int(s)), append(a.TGs, tg), rest
	}
	if len(buf) != 0 {
		return a, fmt.Errorf("%d trailing bytes", len(buf))
	}
	return a, nil
}

// within reports whether s's bytes lie inside buf.
func within(s string, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(buf))
}

// tgWithin reports whether every field of tg is a view of buf.
func tgWithin(tg TripleGroup, buf []byte) bool {
	for _, po := range tg.Triples {
		if !within(po.Prop, buf) || !within(po.Obj, buf) {
			return false
		}
	}
	return within(tg.Subject, buf)
}

func tgsEqual(a, b TripleGroup) bool {
	if a.Subject != b.Subject || len(a.Triples) != len(b.Triples) {
		return false
	}
	for i := range a.Triples {
		if a.Triples[i] != b.Triples[i] {
			return false
		}
	}
	return true
}

func annTGsEqual(a, b AnnTG) bool {
	if len(a.Stars) != len(b.Stars) || len(a.TGs) != len(b.TGs) {
		return false
	}
	for i := range a.Stars {
		if a.Stars[i] != b.Stars[i] || !tgsEqual(a.TGs[i], b.TGs[i]) {
			return false
		}
	}
	return true
}

func FuzzDecodeTripleGroupIDs(f *testing.F) {
	d := fuzzDict()
	tg := TripleGroup{
		Subject: idStr(1),
		Triples: []PO{{Prop: idStr(2), Obj: idStr(3)}, {Prop: idStr(2), Obj: idStr(300)}},
	}
	f.Add(tg.EncodeIDs())
	f.Add((&TripleGroup{Subject: idStr(9)}).EncodeIDs())
	f.Add((&TripleGroup{Subject: idStr(301)}).EncodeIDs())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0x01, 0x82, 0x00, 0x03}) // overlong property ID 2
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		got, rest, err := DecodeTripleGroupIDs(data, d)
		// The views equal the dictionary-resolving reference's fields and
		// lie inside the record; both reject the same inputs.
		ref, rrest, rerr := decodeTripleGroupRef(data, d)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("decode err %v, reference err %v", err, rerr)
		}
		// The arena decoder, behind an earlier decode whose storage it must
		// not disturb, agrees with the allocating wrapper on every input.
		var ar Arena
		first, _, ferr := ar.DecodeTripleGroupIDs(tg.EncodeIDs(), d)
		agot, arest, aerr := ar.DecodeTripleGroupIDs(data, d)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("arena decode err %v, wrapper err %v", aerr, err)
		}
		if ferr != nil || !tgsEqual(first, tg) {
			t.Fatalf("earlier arena result changed: %+v (err %v)", first, ferr)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("decoding changed the record: %x, was %x", data, orig)
		}
		if err != nil {
			return
		}
		if !tgsEqual(got, ref) || len(rest) != len(rrest) {
			t.Fatalf("decode %+v rest %d, reference %+v rest %d", got, len(rest), ref, len(rrest))
		}
		if !tgWithin(got, data) {
			t.Fatalf("decoded %+v is not a view of the record", got)
		}
		if !tgsEqual(agot, got) || len(arest) != len(rest) {
			t.Fatalf("arena decode %+v rest %d, wrapper %+v rest %d", agot, len(arest), got, len(rest))
		}
		got2, rest2, err := DecodeTripleGroupIDs(got.EncodeIDs(), d)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode: rest %d, err %v", len(rest2), err)
		}
		if !tgsEqual(got, got2) {
			t.Fatalf("triplegroup changed across re-encode: %+v vs %+v", got, got2)
		}
	})
}

func FuzzDecodeAnnTGIDs(f *testing.F) {
	d := fuzzDict()
	a := AnnTG{
		Stars: []int{0, 2},
		TGs: []TripleGroup{
			{Subject: idStr(1), Triples: []PO{{Prop: idStr(2), Obj: idStr(3)}}},
			{Subject: idStr(4)},
		},
	}
	f.Add(a.EncodeIDs())
	f.Add((&AnnTG{}).EncodeIDs())
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x00, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x01, 0x00, 0x84, 0x00, 0x00}) // overlong subject ID 4
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeAnnTGIDs(data, d)
		ref, rerr := decodeAnnTGRef(data, d)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("decode err %v, reference err %v", err, rerr)
		}
		// As in FuzzDecodeTripleGroupIDs: the arena decoder against the
		// wrapper, with an earlier result that must survive.
		var ar Arena
		first, ferr := ar.DecodeAnnTGIDs(a.EncodeIDs(), d)
		agot, aerr := ar.DecodeAnnTGIDs(data, d)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("arena decode err %v, wrapper err %v", aerr, err)
		}
		if ferr != nil || !annTGsEqual(first, a) {
			t.Fatalf("earlier arena result changed: %+v (err %v)", first, ferr)
		}
		// The in-place parser checks what the decoder checks, and its
		// spans hold the decoded components.
		spans, serr := AppendAnnTGSpans(nil, data, d)
		if (err == nil) != (serr == nil) {
			t.Fatalf("span parse err %v, decode err %v", serr, err)
		}
		if err != nil {
			return
		}
		if !annTGsEqual(got, ref) {
			t.Fatalf("decode %+v, reference %+v", got, ref)
		}
		for _, tg := range got.TGs {
			if !tgWithin(tg, data) {
				t.Fatalf("decoded %+v is not a view of the record", tg)
			}
		}
		if !annTGsEqual(agot, got) {
			t.Fatalf("arena decode %+v, wrapper %+v", agot, got)
		}
		if len(spans) != len(got.Stars) {
			t.Fatalf("%d spans for %d components", len(spans), len(got.Stars))
		}
		for i, sp := range spans {
			tg, rest, err := DecodeTripleGroupIDs(data[sp.TG:sp.End], d)
			if sp.Star != got.Stars[i] || err != nil || len(rest) != 0 || !tgsEqual(tg, got.TGs[i]) {
				t.Fatalf("span %d = %+v holds star %d %+v (rest %d, err %v), want star %d %+v", i, sp, sp.Star, tg, len(rest), err, got.Stars[i], got.TGs[i])
			}
		}
		got2, err := DecodeAnnTGIDs(got.EncodeIDs(), d)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !annTGsEqual(got, got2) {
			t.Fatalf("anntg changed across re-encode: %+v vs %+v", got, got2)
		}
	})
}

package ntga

import (
	"math"
	"testing"

	"rapidanalytics/internal/codec"
)

// fuzzInterner mirrors rdf.Dict's ID-string behaviour for arbitrary IDs: the
// interned string for id is its own uvarint encoding, so every well-formed ID
// stream decodes. Decoders accept non-minimal uvarints, so the fuzz
// properties are value-level: whatever decodes must survive a canonical
// re-encode/re-decode round trip unchanged.
type fuzzInterner struct{}

func (fuzzInterner) IDString(id uint64) (string, bool) {
	return string(codec.AppendUvarint(nil, id)), true
}

func idStr(id uint64) string { return string(codec.AppendUvarint(nil, id)) }

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
	in := fuzzInterner{}
	tg := TripleGroup{
		Subject: idStr(1),
		Triples: []PO{{Prop: idStr(2), Obj: idStr(3)}, {Prop: idStr(2), Obj: idStr(300)}},
	}
	f.Add(tg.EncodeIDs())
	f.Add((&TripleGroup{Subject: idStr(9)}).EncodeIDs())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeTripleGroupIDs(data, in)
		// The arena decoder, behind an earlier decode whose storage it must
		// not disturb, agrees with the allocating wrapper on every input.
		var ar Arena
		first, _, ferr := ar.DecodeTripleGroupIDs(tg.EncodeIDs(), in)
		agot, arest, aerr := ar.DecodeTripleGroupIDs(data, in)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("arena decode err %v, wrapper err %v", aerr, err)
		}
		if ferr != nil || !tgsEqual(first, tg) {
			t.Fatalf("earlier arena result changed: %+v (err %v)", first, ferr)
		}
		if err != nil {
			return
		}
		if !tgsEqual(agot, got) || len(arest) != len(rest) {
			t.Fatalf("arena decode %+v rest %d, wrapper %+v rest %d", agot, len(arest), got, len(rest))
		}
		got2, rest2, err := DecodeTripleGroupIDs(got.EncodeIDs(), in)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode: rest %d, err %v", len(rest2), err)
		}
		if !tgsEqual(got, got2) {
			t.Fatalf("triplegroup changed across re-encode: %+v vs %+v", got, got2)
		}
	})
}

func FuzzDecodeAnnTGIDs(f *testing.F) {
	in := fuzzInterner{}
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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeAnnTGIDs(data, in)
		// As in FuzzDecodeTripleGroupIDs: the arena decoder against the
		// wrapper, with an earlier result that must survive.
		var ar Arena
		first, ferr := ar.DecodeAnnTGIDs(a.EncodeIDs(), in)
		agot, aerr := ar.DecodeAnnTGIDs(data, in)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("arena decode err %v, wrapper err %v", aerr, err)
		}
		if ferr != nil || !annTGsEqual(first, a) {
			t.Fatalf("earlier arena result changed: %+v (err %v)", first, ferr)
		}
		// The in-place parser checks what the decoder checks, and its
		// spans hold the decoded components.
		spans, serr := AppendAnnTGSpans(nil, data, math.MaxUint64)
		if (err == nil) != (serr == nil) {
			t.Fatalf("span parse err %v, decode err %v", serr, err)
		}
		if err != nil {
			return
		}
		if !annTGsEqual(agot, got) {
			t.Fatalf("arena decode %+v, wrapper %+v", agot, got)
		}
		if len(spans) != len(got.Stars) {
			t.Fatalf("%d spans for %d components", len(spans), len(got.Stars))
		}
		for i, sp := range spans {
			tg, rest, err := DecodeTripleGroupIDs(data[sp.TG:sp.End], in)
			if sp.Star != got.Stars[i] || err != nil || len(rest) != 0 || !tgsEqual(tg, got.TGs[i]) {
				t.Fatalf("span %d = %+v holds star %d %+v (rest %d, err %v), want star %d %+v", i, sp, sp.Star, tg, len(rest), err, got.Stars[i], got.TGs[i])
			}
		}
		got2, err := DecodeAnnTGIDs(got.EncodeIDs(), in)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !annTGsEqual(got, got2) {
			t.Fatalf("anntg changed across re-encode: %+v vs %+v", got, got2)
		}
	})
}

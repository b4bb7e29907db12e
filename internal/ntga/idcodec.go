package ntga

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/rdf"
)

// This file holds the triplegroup codecs. Every field of a stored or
// shuffled triplegroup (subject, property, object) is a uvarint ID-string
// (rdf.Dict), which is self-delimiting — so the encoded form concatenates
// the raw ID bytes with no per-field length prefixes. One walker per
// format reads a record: it checks each field with rdf.ReadID against the
// dictionary's length and, when decoding, returns the field as a view of
// the record's bytes, so a decode allocates no string and looks up no
// term.

// AppendEncodeIDs appends the encoding of the triplegroup to buf. Every
// field must be an ID-string.
func (tg *TripleGroup) AppendEncodeIDs(buf []byte) []byte {
	buf = append(buf, tg.Subject...)
	buf = codec.AppendUvarint(buf, uint64(len(tg.Triples)))
	for _, t := range tg.Triples {
		buf = append(buf, t.Prop...)
		buf = append(buf, t.Obj...)
	}
	return buf
}

// EncodeIDs serialises the triplegroup.
func (tg *TripleGroup) EncodeIDs() []byte {
	return tg.AppendEncodeIDs(nil)
}

// decodeErr builds a decode failure. It is a function of its own so the
// per-record decoders hold no formatting call: malformed input ends the
// task, so it runs at most once.
func decodeErr(format string, args ...any) error {
	return fmt.Errorf("ntga: "+format, args...)
}

// Arena is reusable backing storage for decoded triplegroups. Its decode
// methods append into it and return values whose slices alias it and whose
// fields are views of the decoded record, so a map task or reducer that
// finishes with one record (or one key group) before decoding the next pays
// for the storage once: the values are valid until Reset, and for as long
// as the record is kept unmodified. The zero value is ready to use; an
// Arena is not safe for concurrent use.
type Arena struct {
	pos   []PO
	stars []int
	tgs   []TripleGroup
}

// Reset invalidates everything decoded so far and makes its storage
// available to the next decode.
func (ar *Arena) Reset() {
	ar.pos, ar.stars, ar.tgs = ar.pos[:0], ar.stars[:0], ar.tgs[:0]
}

// DecodeTripleGroupIDs parses a triplegroup written by AppendEncodeIDs into
// the arena, returning the remaining buffer (triplegroups nest inside
// annotated triplegroups). Every field is an ID-string of d (rdf.ReadID)
// and a view of buf.
func (ar *Arena) DecodeTripleGroupIDs(buf []byte, d *rdf.Dict) (TripleGroup, []byte, error) {
	tg, end, err := readTripleGroup(buf, 0, uint64(d.Len()), ar)
	if err != nil {
		return tg, nil, err
	}
	return tg, buf[end:], nil
}

// DecodeTripleGroupIDs is Arena.DecodeTripleGroupIDs into fresh storage: the
// result is the caller's to keep while buf is.
func DecodeTripleGroupIDs(buf []byte, d *rdf.Dict) (TripleGroup, []byte, error) {
	var ar Arena
	return ar.DecodeTripleGroupIDs(buf, d)
}

// readTripleGroup checks the triplegroup encoded at rec[off:], reading
// every term ID with rdf.ReadID against maxID, and returns it and the
// offset just past it. Its fields are views of rec; with ar nil its
// triples are checked but not kept.
func readTripleGroup(rec []byte, off int, maxID uint64, ar *Arena) (TripleGroup, int, error) {
	var tg TripleGroup
	_, k, err := rdf.ReadID(rec[off:], maxID)
	if err != nil {
		return tg, 0, decodeErr("id triplegroup subject: %w", err)
	}
	tg.Subject, off = view(rec, off, k), off+k
	n, k := binary.Uvarint(rec[off:])
	if k <= 0 {
		return tg, 0, decodeErr("id triplegroup arity: bad uvarint")
	}
	off += k
	// Each triple takes at least two bytes (property + object IDs).
	if n > uint64(len(rec)-off) {
		return tg, 0, decodeErr("id triplegroup arity %d exceeds %d remaining bytes", n, len(rec)-off)
	}
	if ar != nil {
		ar.pos = slices.Grow(ar.pos, int(n))
	}
	for i := 0; i < int(n); i++ {
		_, p, err := rdf.ReadID(rec[off:], maxID)
		if err != nil {
			return tg, 0, decodeErr("id triple %d property: %w", i, err)
		}
		_, o, err := rdf.ReadID(rec[off+p:], maxID)
		if err != nil {
			return tg, 0, decodeErr("id triple %d object: %w", i, err)
		}
		if ar != nil {
			ar.pos = append(ar.pos, PO{Prop: view(rec, off, p), Obj: view(rec, off+p, o)})
		}
		off += p + o
	}
	if ar != nil && n > 0 {
		// The last n triples, capped, so an append through the result
		// cannot reach a later decode.
		end := len(ar.pos)
		tg.Triples = ar.pos[end-int(n) : end : end]
	}
	return tg, off, nil
}

// view returns rec[off:off+n], n > 0, as a string sharing rec's bytes.
func view(rec []byte, off, n int) string {
	return unsafe.String(&rec[off], n)
}

// AppendEncodeIDs appends the encoding of the annotated triplegroup to
// buf.
func (a *AnnTG) AppendEncodeIDs(buf []byte) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(a.Stars)))
	for i, s := range a.Stars {
		buf = codec.AppendUvarint(buf, uint64(s))
		buf = a.TGs[i].AppendEncodeIDs(buf)
	}
	return buf
}

// EncodeIDs serialises the annotated triplegroup.
func (a *AnnTG) EncodeIDs() []byte {
	return a.AppendEncodeIDs(nil)
}

// DecodeAnnTGIDs parses an annotated triplegroup written by
// AppendEncodeIDs into the arena; its fields are views of buf.
func (ar *Arena) DecodeAnnTGIDs(buf []byte, d *rdf.Dict) (AnnTG, error) {
	start := len(ar.stars)
	if _, err := appendAnnTG(nil, buf, uint64(d.Len()), ar); err != nil {
		return AnnTG{}, err
	}
	end := len(ar.stars)
	return AnnTG{Stars: ar.stars[start:end:end], TGs: ar.tgs[start:end:end]}, nil
}

// DecodeAnnTGIDs is Arena.DecodeAnnTGIDs into fresh storage: the result is
// the caller's to keep while buf is.
func DecodeAnnTGIDs(buf []byte, d *rdf.Dict) (AnnTG, error) {
	var ar Arena
	return ar.DecodeAnnTGIDs(buf, d)
}

// CompSpan locates one component of an encoded annotated triplegroup in its
// record: rec[Start:End] is uvarint(Star) followed by the component's
// triplegroup, which starts at TG. A span holds offsets, not a slice, so a
// span slice holds no pointer into the record.
type CompSpan struct {
	Star  int // the component's composite star
	Start int // where uvarint(Star) starts
	TG    int // where the triplegroup starts
	End   int // just past the triplegroup
}

// AppendAnnTGSpans parses an annotated triplegroup written by
// AppendEncodeIDs in place and appends one span per component to dst. It
// checks what DecodeAnnTGIDs checks — arity bounds, truncation, trailing
// bytes, and every term ID with rdf.ReadID against d — without decoding a
// field. On error dst comes back unextended.
func AppendAnnTGSpans(dst []CompSpan, buf []byte, d *rdf.Dict) ([]CompSpan, error) {
	return appendAnnTG(dst, buf, uint64(d.Len()), nil)
}

// appendAnnTG is the one walker of an annotated triplegroup: with ar nil it
// is AppendAnnTGSpans against maxID; otherwise it decodes each component
// into ar instead of appending its span.
func appendAnnTG(dst []CompSpan, buf []byte, maxID uint64, ar *Arena) ([]CompSpan, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return dst, decodeErr("id anntg arity: bad uvarint")
	}
	// Each star takes at least two bytes (star index + subject ID).
	if n > uint64(len(buf)-off) {
		return dst, decodeErr("id anntg arity %d exceeds %d remaining bytes", n, len(buf)-off)
	}
	out := dst
	if ar == nil {
		out = slices.Grow(dst, int(n))
	} else {
		ar.stars, ar.tgs = slices.Grow(ar.stars, int(n)), slices.Grow(ar.tgs, int(n))
	}
	for i := 0; i < int(n); i++ {
		s, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return dst, decodeErr("id anntg star %d: bad uvarint", i)
		}
		sp := CompSpan{Star: int(s), Start: off, TG: off + k}
		tg, end, err := readTripleGroup(buf, sp.TG, maxID, ar)
		if err != nil {
			return dst, err
		}
		sp.End, off = end, end
		if ar != nil {
			ar.stars = append(ar.stars, sp.Star)
			ar.tgs = append(ar.tgs, tg)
		} else {
			out = append(out, sp)
		}
	}
	if off != len(buf) {
		return dst, decodeErr("%d trailing bytes after id anntg", len(buf)-off)
	}
	return out, nil
}

// AppendJoinIDs appends the encoding of the join of two annotated
// triplegroups, l located in lrec and r in rrec (AppendAnnTGSpans): the
// component count, then both sides' component spans copied as they are,
// merged by star (on a tie, r's first). For records written by
// AppendEncodeIDs this is byte for byte the encoding of the decoded join,
// without decoding either side.
func AppendJoinIDs(buf, lrec []byte, l []CompSpan, rrec []byte, r []CompSpan) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(l)+len(r)))
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		if l[i].Star < r[j].Star {
			buf = append(buf, lrec[l[i].Start:l[i].End]...)
			i++
		} else {
			buf = append(buf, rrec[r[j].Start:r[j].End]...)
			j++
		}
	}
	// A side's spans are contiguous in its record: the rest is one copy.
	if i < len(l) {
		buf = append(buf, lrec[l[i].Start:l[len(l)-1].End]...)
	}
	if j < len(r) {
		buf = append(buf, rrec[r[j].Start:r[len(r)-1].End]...)
	}
	return buf
}

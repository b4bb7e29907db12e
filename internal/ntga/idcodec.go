package ntga

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rapidanalytics/internal/codec"
)

// This file holds the triplegroup codecs. Every field of a stored or
// shuffled triplegroup (subject, property, object) is a uvarint ID-string
// (rdf.Dict), which is self-delimiting — so the encoded form concatenates
// the raw ID bytes with no per-field length prefixes, and decoding resolves
// each ID to its interned string through a codec.Interner instead of
// allocating a fresh string per field.

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
// methods append into it and return values whose slices alias it, so a map
// task or reducer that finishes with one record (or one key group) before
// decoding the next pays for the storage once: the values are valid until
// Reset. The zero value is ready to use; an Arena is not safe for concurrent
// use.
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
// annotated triplegroups). Fields resolve to interned ID-strings through in.
func (ar *Arena) DecodeTripleGroupIDs(buf []byte, in codec.Interner) (TripleGroup, []byte, error) {
	var tg TripleGroup
	var err error
	tg.Subject, buf, err = codec.ReadIDValue(buf, in)
	if err != nil {
		return tg, nil, decodeErr("id triplegroup subject: %w", err)
	}
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return tg, nil, decodeErr("id triplegroup arity: %w", err)
	}
	// Each triple takes at least two bytes (property + object IDs).
	if n > uint64(len(buf)) {
		return tg, nil, decodeErr("id triplegroup arity %d exceeds %d remaining bytes", n, len(buf))
	}
	start := len(ar.pos)
	ar.pos = slices.Grow(ar.pos, int(n))
	for i := 0; i < int(n); i++ {
		var po PO
		po.Prop, buf, err = codec.ReadIDValue(buf, in)
		if err != nil {
			return tg, nil, decodeErr("id triple %d property: %w", i, err)
		}
		po.Obj, buf, err = codec.ReadIDValue(buf, in)
		if err != nil {
			return tg, nil, decodeErr("id triple %d object: %w", i, err)
		}
		ar.pos = append(ar.pos, po)
	}
	if n > 0 {
		// Capped, so an append through the result cannot reach a later
		// decode.
		tg.Triples = ar.pos[start:len(ar.pos):len(ar.pos)]
	}
	return tg, buf, nil
}

// DecodeTripleGroupIDs is Arena.DecodeTripleGroupIDs into fresh storage: the
// result is the caller's to keep.
func DecodeTripleGroupIDs(buf []byte, in codec.Interner) (TripleGroup, []byte, error) {
	var ar Arena
	return ar.DecodeTripleGroupIDs(buf, in)
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
// AppendEncodeIDs into the arena.
func (ar *Arena) DecodeAnnTGIDs(buf []byte, in codec.Interner) (AnnTG, error) {
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return AnnTG{}, decodeErr("id anntg arity: %w", err)
	}
	// Each star takes at least two bytes (star index + subject ID).
	if n > uint64(len(buf)) {
		return AnnTG{}, decodeErr("id anntg arity %d exceeds %d remaining bytes", n, len(buf))
	}
	start := len(ar.stars)
	ar.stars = slices.Grow(ar.stars, int(n))
	ar.tgs = slices.Grow(ar.tgs, int(n))
	for i := 0; i < int(n); i++ {
		s, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return AnnTG{}, decodeErr("id anntg star %d: %w", i, err)
		}
		tg, rest, err := ar.DecodeTripleGroupIDs(rest, in)
		if err != nil {
			return AnnTG{}, err
		}
		ar.stars = append(ar.stars, int(s))
		ar.tgs = append(ar.tgs, tg)
		buf = rest
	}
	if len(buf) != 0 {
		return AnnTG{}, decodeErr("%d trailing bytes after id anntg", len(buf))
	}
	end := len(ar.stars)
	return AnnTG{Stars: ar.stars[start:end:end], TGs: ar.tgs[start:end:end]}, nil
}

// DecodeAnnTGIDs is Arena.DecodeAnnTGIDs into fresh storage: the result is
// the caller's to keep.
func DecodeAnnTGIDs(buf []byte, in codec.Interner) (AnnTG, error) {
	var ar Arena
	return ar.DecodeAnnTGIDs(buf, in)
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
// bytes, and that every term ID is at most maxID (a dictionary resolves the
// IDs 0..Len()) — without resolving any ID. On error dst comes back
// unextended.
func AppendAnnTGSpans(dst []CompSpan, buf []byte, maxID uint64) ([]CompSpan, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return dst, decodeErr("id anntg arity: bad uvarint")
	}
	// Each star takes at least two bytes (star index + subject ID).
	if n > uint64(len(buf)-off) {
		return dst, decodeErr("id anntg arity %d exceeds %d remaining bytes", n, len(buf)-off)
	}
	out := slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		s, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return dst, decodeErr("id anntg star %d: bad uvarint", i)
		}
		sp := CompSpan{Star: int(s), Start: off, TG: off + k}
		end, err := skipTripleGroupIDs(buf, sp.TG, maxID)
		if err != nil {
			return dst, err
		}
		sp.End, off = end, end
		out = append(out, sp)
	}
	if off != len(buf) {
		return dst, decodeErr("%d trailing bytes after id anntg", len(buf)-off)
	}
	return out, nil
}

// skipTripleGroupIDs checks the triplegroup encoded at buf[off:] as
// DecodeTripleGroupIDs does and returns the offset just past it.
func skipTripleGroupIDs(buf []byte, off int, maxID uint64) (int, error) {
	off, err := skipID(buf, off, maxID)
	if err != nil {
		return 0, decodeErr("id triplegroup subject: %w", err)
	}
	n, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return 0, decodeErr("id triplegroup arity: bad uvarint")
	}
	off += k
	// Each triple takes at least two bytes (property + object IDs).
	if n > uint64(len(buf)-off) {
		return 0, decodeErr("id triplegroup arity %d exceeds %d remaining bytes", n, len(buf)-off)
	}
	for i := 0; i < int(n); i++ {
		if off, err = skipID(buf, off, maxID); err != nil {
			return 0, decodeErr("id triple %d property: %w", i, err)
		}
		if off, err = skipID(buf, off, maxID); err != nil {
			return 0, decodeErr("id triple %d object: %w", i, err)
		}
	}
	return off, nil
}

// skipID checks the term ID at buf[off:] against maxID and returns the
// offset just past it.
func skipID(buf []byte, off int, maxID uint64) (int, error) {
	id, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return 0, errBadID
	}
	if id > maxID {
		return 0, unknownIDErr(id)
	}
	return off + k, nil
}

// errBadID is the failure of a term ID that is no uvarint.
var errBadID = errors.New("codec: bad uvarint")

// unknownIDErr is the failure of a term ID no dictionary entry resolves.
func unknownIDErr(id uint64) error {
	return fmt.Errorf("codec: unknown term id %d", id)
}

// idLen returns the length of the uvarint ID at the front of a checked
// encoding.
func idLen(b []byte) int {
	n := 1
	for b[n-1] >= 0x80 {
		n++
	}
	return n
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

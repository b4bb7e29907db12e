package ntga

import (
	"fmt"

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
//
//rapid:hot
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

// DecodeTripleGroupIDs parses a triplegroup written by AppendEncodeIDs,
// returning the remaining buffer (triplegroups nest inside annotated
// triplegroups). Fields resolve to interned ID-strings through in.
func DecodeTripleGroupIDs(buf []byte, in codec.Interner) (TripleGroup, []byte, error) {
	var tg TripleGroup
	var err error
	tg.Subject, buf, err = codec.ReadIDValue(buf, in)
	if err != nil {
		return tg, nil, fmt.Errorf("ntga: id triplegroup subject: %w", err)
	}
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return tg, nil, fmt.Errorf("ntga: id triplegroup arity: %w", err)
	}
	// Each triple takes at least two bytes (property + object IDs).
	if n > uint64(len(buf)) {
		return tg, nil, fmt.Errorf("ntga: id triplegroup arity %d exceeds %d remaining bytes", n, len(buf))
	}
	if n > 0 {
		tg.Triples = make([]PO, n)
	}
	for i := range tg.Triples {
		tg.Triples[i].Prop, buf, err = codec.ReadIDValue(buf, in)
		if err != nil {
			return tg, nil, fmt.Errorf("ntga: id triple %d property: %w", i, err)
		}
		tg.Triples[i].Obj, buf, err = codec.ReadIDValue(buf, in)
		if err != nil {
			return tg, nil, fmt.Errorf("ntga: id triple %d object: %w", i, err)
		}
	}
	return tg, buf, nil
}

// AppendEncodeIDs appends the encoding of the annotated triplegroup to
// buf.
//
//rapid:hot
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
// AppendEncodeIDs.
func DecodeAnnTGIDs(buf []byte, in codec.Interner) (AnnTG, error) {
	n, buf, err := codec.ReadUvarint(buf)
	if err != nil {
		return AnnTG{}, fmt.Errorf("ntga: id anntg arity: %w", err)
	}
	// Each star takes at least two bytes (star index + subject ID).
	if n > uint64(len(buf)) {
		return AnnTG{}, fmt.Errorf("ntga: id anntg arity %d exceeds %d remaining bytes", n, len(buf))
	}
	a := AnnTG{Stars: make([]int, n), TGs: make([]TripleGroup, n)}
	for i := 0; i < int(n); i++ {
		s, rest, err := codec.ReadUvarint(buf)
		if err != nil {
			return AnnTG{}, fmt.Errorf("ntga: id anntg star %d: %w", i, err)
		}
		a.Stars[i] = int(s)
		a.TGs[i], rest, err = DecodeTripleGroupIDs(rest, in)
		if err != nil {
			return AnnTG{}, err
		}
		buf = rest
	}
	if len(buf) != 0 {
		return AnnTG{}, fmt.Errorf("ntga: %d trailing bytes after id anntg", len(buf))
	}
	return a, nil
}

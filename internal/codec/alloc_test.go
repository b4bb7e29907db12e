package codec

import "testing"

// tableInterner resolves term IDs through a fixed table of interned
// ID-strings, as rdf.Dict does.
type tableInterner []string

func (t tableInterner) IDString(id uint64) (string, bool) {
	if id >= uint64(len(t)) {
		return "", false
	}
	return t[id], true
}

// The encoders allocate nothing once their buffer is warm, and neither do
// the decoders: AppendDecodeTuple's fields are views of its record.
func TestCodecsSteadyStateAllocs(t *testing.T) {
	table := make(tableInterner, 300)
	for id := range table {
		table[id] = string(AppendUvarint(nil, uint64(id)))
	}
	var in Interner = table
	ids := Tuple{table[130], table[0], table[299]}
	lex := Tuple{"Ihttp://e/a", "", "L42"}
	idRec, lexRec := ids.EncodeIDs(), lex.Encode()
	var (
		buf []byte
		dst Tuple
		err error
	)
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"AppendString", 0, func() { buf = AppendString(buf[:0], lex[0]) }},
		{"AppendUvarint", 0, func() { buf = AppendUvarint(buf[:0], 1<<40) }},
		{"Tuple.AppendEncode", 0, func() { buf = lex.AppendEncode(buf[:0]) }},
		{"Tuple.AppendEncodeIDs", 0, func() { buf = ids.AppendEncodeIDs(buf[:0]) }},
		{"AppendDecodeIDTuple", 0, func() { dst, err = AppendDecodeIDTuple(dst[:0], idRec, in) }},
		{"AppendDecodeTuple", 0, func() { dst, err = AppendDecodeTuple(dst[:0], lexRec) }},
	} {
		if c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, c.run); n > c.bound {
			t.Errorf("%s allocates %v times per call, want at most %v", c.name, n, c.bound)
		}
	}
}

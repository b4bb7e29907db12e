package codec

import "testing"

// The encoders allocate nothing once their buffer is warm, and neither do
// the decoders: their fields are views of their record.
func TestCodecsSteadyStateAllocs(t *testing.T) {
	d := fuzzDict()
	ids := Tuple{string(AppendUvarint(nil, 130)), "\x00", string(AppendUvarint(nil, 299))}
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
		{"AppendDecodeIDTuple", 0, func() { dst, err = AppendDecodeIDTuple(dst[:0], idRec, d) }},
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

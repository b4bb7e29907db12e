package ntga

import (
	"strconv"
	"testing"

	"rapidanalytics/internal/rdf"
)

// The codecs, the projection and the α-join's encoded-plane functions
// allocate nothing once their destination buffers are warm.
func TestCodecsSteadyStateAllocs(t *testing.T) {
	d := rdf.NewDict()
	// Term IDs from 128 up take two uvarint bytes. The runtime converts a
	// one-byte slice to a string without allocating, which would hide a
	// per-field copy.
	for i := range 200 {
		d.Add("Lpad" + strconv.Itoa(i))
	}
	a := joined(productTG(d, "p1", "f1", "f2"), offerTG(d, "o1", "p1", "100"))
	rec := a.EncodeIDs()
	spans := mustSpans(t, d, rec)
	// Pattern 0 requires pf on star 0, so the set tests encoded triples.
	alpha := ResolveAlpha(buildComposite(t), d)
	features := []Ref{{Prop: a.TGs[0].Triples[2].Prop}}
	var (
		ar   Arena
		buf  []byte
		set  []uint64
		comp []CompSpan
		pos  []PO
		err  error
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"TripleGroup.AppendEncodeIDs", func() { buf = a.TGs[0].AppendEncodeIDs(buf[:0]) }},
		{"TripleGroup.AppendProjectRefs", func() { pos = a.TGs[0].AppendProjectRefs(pos[:0], features) }},
		{"AnnTG.AppendEncodeIDs", func() { buf = a.AppendEncodeIDs(buf[:0]) }},
		{"Arena.DecodeAnnTGIDs", func() { ar.Reset(); _, err = ar.DecodeAnnTGIDs(rec, d) }},
		{"AppendAnnTGSpans", func() { comp, err = AppendAnnTGSpans(comp[:0], rec, d) }},
		{"AlphaTable.AppendPatternSet", func() { set, err = alpha.AppendPatternSet(set[:0], rec, spans) }},
		{"AppendJoinIDs", func() { buf = AppendJoinIDs(buf[:0], rec, spans[1:], rec, spans[:1]) }},
	} {
		if c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}

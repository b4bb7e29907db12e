package tgops

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
)

// refAlphaJoinReducer is the α-join reducer the span-splicing one replaced,
// kept as the reference it must agree with byte for byte: it decodes every
// value through the dictionary, merges each (l, r) pair into a fresh
// annotated triplegroup, tests every pattern's α condition on the merge and
// re-encodes it.
type refAlphaJoinReducer struct {
	alpha       *ntga.AlphaTable
	numPatterns int
	dict        *rdf.Dict
	arena       ntga.Arena
	ls, rs      []ntga.AnnTG
	out         []byte
}

// refMerge combines two joined triplegroups, merging their star lists.
func refMerge(a, b ntga.AnnTG) ntga.AnnTG {
	out := ntga.AnnTG{
		Stars: make([]int, 0, len(a.Stars)+len(b.Stars)),
		TGs:   make([]ntga.TripleGroup, 0, len(a.TGs)+len(b.TGs)),
	}
	i, j := 0, 0
	for i < len(a.Stars) && j < len(b.Stars) {
		if a.Stars[i] < b.Stars[j] {
			out.Stars = append(out.Stars, a.Stars[i])
			out.TGs = append(out.TGs, a.TGs[i])
			i++
		} else {
			out.Stars = append(out.Stars, b.Stars[j])
			out.TGs = append(out.TGs, b.TGs[j])
			j++
		}
	}
	for ; i < len(a.Stars); i++ {
		out.Stars = append(out.Stars, a.Stars[i])
		out.TGs = append(out.TGs, a.TGs[i])
	}
	for ; j < len(b.Stars); j++ {
		out.Stars = append(out.Stars, b.Stars[j])
		out.TGs = append(out.TGs, b.TGs[j])
	}
	return out
}

// satisfiesAny is the α-Join admission test on a merged triplegroup: some
// pattern's α condition holds. A nil table admits everything.
func (red *refAlphaJoinReducer) satisfiesAny(a *ntga.AnnTG) bool {
	if red.alpha == nil {
		return true
	}
	for k := 0; k < red.numPatterns; k++ {
		if red.alpha.Satisfies(a, k) {
			return true
		}
	}
	return false
}

func (red *refAlphaJoinReducer) pair(l, r *ntga.AnnTG, emit mapred.Emit) {
	merged := refMerge(*l, *r)
	if red.satisfiesAny(&merged) {
		red.out = merged.AppendEncodeIDs(red.out[:0])
		emit("", red.out)
	}
}

func (red *refAlphaJoinReducer) Reduce(key string, values [][]byte, emit mapred.Emit) error {
	red.arena.Reset()
	red.ls, red.rs = red.ls[:0], red.rs[:0]
	for _, v := range values {
		if len(v) < 1 {
			return fmt.Errorf("tgops: empty α-join value")
		}
		a, err := red.arena.DecodeAnnTGIDs(v[1:], red.dict)
		if err != nil {
			return err
		}
		if v[0] == 0 {
			for j := range red.rs {
				red.pair(&a, &red.rs[j], emit)
			}
			red.ls = append(red.ls, a)
		} else {
			for i := range red.ls {
				red.pair(&red.ls[i], &a, emit)
			}
			red.rs = append(red.rs, a)
		}
	}
	return nil
}

// joinFixture is one generated α-join reduce input: a dictionary, an α
// table over numPatterns patterns (nil for none) and key groups of tagged
// values.
type joinFixture struct {
	dict        *rdf.Dict
	alpha       *ntga.AlphaTable
	numPatterns int
	groups      [][][]byte
}

// genJoinFixture draws a fixture from seed. Values are tagged encodings of
// annotated triplegroups with ascending stars, as the α-join mapper writes
// them; props and objects come from small pools so α requirements hold for
// some values and not others. patterns = 0 gives a nil table. malformed > 0
// breaks one value: emptied, cut to its tag, truncated, given a trailing
// byte, or given a term ID the dictionary does not hold.
func genJoinFixture(seed int64, patterns int, malformed uint8) joinFixture {
	rng := rand.New(rand.NewSource(seed))
	d := rdf.NewDict()
	terms := make([]string, 1+rng.Intn(40))
	for i := range terms {
		terms[i] = d.AddString(fmt.Sprintf("Lt%d", i))
	}
	term := func() string { return terms[rng.Intn(len(terms))] }
	props := terms[:1+rng.Intn(min(4, len(terms)))]
	prop := func() string { return props[rng.Intn(len(props))] }
	nStars := 1 + rng.Intn(4)
	fx := joinFixture{dict: d, numPatterns: patterns}
	if patterns > 0 {
		req := make([][][]ntga.Ref, nStars)
		for s := range req {
			req[s] = make([][]ntga.Ref, patterns)
			for k := range req[s] {
				for n := rng.Intn(3); n > 0; n-- {
					ref := ntga.Ref{Prop: prop()}
					switch rng.Intn(6) {
					case 0:
						ref.Obj = term()
					case 1:
						ref.Prop = rdf.MissingIDString
					}
					req[s][k] = append(req[s][k], ref)
				}
			}
		}
		fx.alpha = ntga.NewAlphaTable(patterns, req)
	}
	for g := rng.Intn(4); g >= 0; g-- {
		var group [][]byte
		for n := rng.Intn(7); n > 0; n-- {
			var a ntga.AnnTG
			for s := 0; s < nStars; s++ {
				if rng.Intn(2) == 0 {
					continue
				}
				tg := ntga.TripleGroup{Subject: term()}
				for t := rng.Intn(5); t > 0; t-- {
					tg.Triples = append(tg.Triples, ntga.PO{Prop: prop(), Obj: term()})
				}
				a.Stars = append(a.Stars, s)
				a.TGs = append(a.TGs, tg)
			}
			group = append(group, a.AppendEncodeIDs([]byte{byte(rng.Intn(2))}))
		}
		fx.groups = append(fx.groups, group)
	}
	if malformed == 0 {
		return fx
	}
	var at []int // group indexes with a value to break
	for g, group := range fx.groups {
		if len(group) > 0 {
			at = append(at, g)
		}
	}
	if len(at) == 0 {
		return fx
	}
	group := fx.groups[at[rng.Intn(len(at))]]
	i := rng.Intn(len(group))
	v := group[i]
	switch malformed % 5 {
	case 0:
		v = nil
	case 1:
		v = v[:1]
	case 2:
		v = v[:1+rng.Intn(len(v)-1)]
	case 3:
		v = append(v, byte(rng.Intn(256)))
	case 4:
		a := ntga.AnnTG{Stars: []int{0}, TGs: []ntga.TripleGroup{{
			Subject: term(),
			Triples: []ntga.PO{{Prop: prop(), Obj: string(codec.AppendUvarint(nil, uint64(d.Len()+1+rng.Intn(300))))}},
		}}}
		v = a.AppendEncodeIDs(v[:1])
	}
	group[i] = v
	return fx
}

// joinRun is what one reducer made of a fixture: every emitted value, and
// the group the first error ended.
type joinRun struct {
	emits [][]byte
	err   error
}

// runJoin feeds every key group of fx to red in order; after each group it
// calls between, which may overwrite that group's buffers.
func runJoin(red mapred.Reducer, fx joinFixture, between func(group [][]byte)) joinRun {
	var run joinRun
	emit := func(key string, value []byte) {
		run.emits = append(run.emits, append([]byte(nil), value...))
	}
	for g, group := range fx.groups {
		if err := red.Reduce("k", group, emit); err != nil {
			run.err = fmt.Errorf("group %d: %w", g, err)
			return run
		}
		if between != nil {
			between(group)
		}
	}
	return run
}

// checkSameRun fails unless the two runs emitted identical byte sequences
// and failed alike.
func checkSameRun(t *testing.T, got, want joinRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("error %v, reference error %v", got.err, want.err)
	}
	if len(got.emits) != len(want.emits) {
		t.Fatalf("%d records emitted, reference %d", len(got.emits), len(want.emits))
	}
	for i := range got.emits {
		if !bytes.Equal(got.emits[i], want.emits[i]) {
			t.Fatalf("record %d = % x, reference % x", i, got.emits[i], want.emits[i])
		}
	}
}

func newJoinReducers(fx joinFixture) (*alphaJoinReducer, *refAlphaJoinReducer) {
	return &alphaJoinReducer{alpha: fx.alpha, dict: fx.dict},
		&refAlphaJoinReducer{alpha: fx.alpha, numPatterns: fx.numPatterns, dict: fx.dict}
}

// The span-splicing α-join reducer emits exactly the reference's records
// and fails exactly where it fails: nil, one-pattern and multi-word α
// tables, empty and one-sided groups, and malformed values.
func FuzzAlphaJoinMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(3), uint8(0))
	f.Add(int64(4), uint8(70), uint8(0))
	f.Add(int64(5), uint8(130), uint8(0))
	for m := uint8(1); m <= 5; m++ {
		f.Add(int64(10+m), uint8(2*m), m)
	}
	f.Fuzz(func(t *testing.T, seed int64, patterns, malformed uint8) {
		fx := genJoinFixture(seed, int(patterns), malformed)
		red, ref := newJoinReducers(fx)
		checkSameRun(t, runJoin(red, fx, nil), runJoin(ref, fx, nil))
	})
}

// The generator reaches what the fuzz target claims to compare: admitted
// and refused pairs under multi-word tables, and every malformed kind
// failing.
func TestAlphaJoinMatchesReferenceSeeded(t *testing.T) {
	var admitted, refused, failed int
	for seed := int64(0); seed < 300; seed++ {
		patterns := []int{0, 1, 3, 70}[seed%4]
		malformed := uint8(0)
		if seed%3 == 0 {
			malformed = uint8(1 + seed%5)
		}
		fx := genJoinFixture(seed, patterns, malformed)
		red, ref := newJoinReducers(fx)
		got := runJoin(red, fx, nil)
		checkSameRun(t, got, runJoin(ref, fx, nil))
		if got.err != nil {
			failed++
			continue
		}
		all, _ := newJoinReducers(joinFixture{dict: fx.dict, groups: fx.groups})
		n := len(runJoin(all, fx, nil).emits)
		admitted += len(got.emits)
		if patterns == 70 {
			refused += n - len(got.emits)
		}
	}
	if admitted < 500 || refused == 0 || failed < 50 {
		t.Errorf("generator too weak: %d admitted, %d refused under 70 patterns, %d failed runs", admitted, refused, failed)
	}
}

// A key group's spans die with its Reduce call: the first group's value
// buffers are overwritten before the second group runs, and every record
// still equals the reference's; the reducer's per-group scratch holds
// offsets only, so it keeps no pointer into any group.
func TestAlphaJoinReducerRetainsNothingAcrossGroups(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		fx := genJoinFixture(seed, []int{0, 2, 70}[seed%3], 0)
		// Two groups, the second holding the first's values with their
		// sides swapped: a value kept from the first group would pair with
		// them.
		l := fx.groups[0]
		fx.groups = [][][]byte{l, nil}
		for _, v := range l {
			w := append([]byte(nil), v...)
			w[0] = 1 - w[0]
			fx.groups[1] = append(fx.groups[1], w)
		}
		red, ref := newJoinReducers(fx)
		want := runJoin(ref, fx, nil)
		clobbered := make([][]byte, len(l))
		for i, v := range l {
			clobbered[i] = append([]byte(nil), v...)
		}
		fx.groups[0] = clobbered
		got := runJoin(red, fx, func(group [][]byte) {
			for _, v := range group {
				for i := range v {
					v[i] = 0xff
				}
			}
		})
		checkSameRun(t, got, want)
	}
	red := &alphaJoinReducer{}
	for _, scratch := range []any{red.spans, red.pats, red.ls, red.rs} {
		if elem := reflect.TypeOf(scratch).Elem(); hasPointers(elem) {
			t.Errorf("per-group scratch of %v holds pointers", elem)
		}
	}
}

// hasPointers reports whether values of t hold any pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return false
	default:
		return true
	}
}

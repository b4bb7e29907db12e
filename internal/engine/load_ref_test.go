package engine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/stats"
	"rapidanalytics/internal/store"
)

// The three lexical walks engine.Load made before it loaded through one
// interning walk (rdf.Intern), kept as the equivalence reference of
// TestLoadMatchesReference and FuzzLoadMatchesReference: refBuildVP interns
// every term, refBuildTG regroups by lexical subject (refGroupBySubject),
// and refCollect rebuilds that grouping with lexical maps. None of them drops
// a repeated statement, so they are fed de-duplicated graphs.

func refBuildVP(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*store.VPStore, error) {
	s := &store.VPStore{
		Prefix:     prefix,
		Tables:     map[string]string{},
		TypeTables: map[string]string{},
		Rows:       map[string]int64{},
	}
	writers := map[string]*dfs.Writer{}
	writerFor := func(name string) (*dfs.Writer, error) {
		w, ok := writers[name]
		if !ok {
			var err error
			if w, err = fs.Create(name, store.ORCCompressionRatio); err != nil {
				return nil, err
			}
			writers[name] = w
		}
		return w, nil
	}
	encRow := func(fields ...string) []byte {
		t := codec.Tuple(fields)
		for i, f := range t {
			t[i] = d.AddString(f)
		}
		return t.EncodeIDs()
	}
	s.TriplesTable = prefix + "/triples"
	s.EmptySubjects, s.EmptyPairs = prefix+"/empty_subjects", prefix+"/empty_pairs"
	for _, name := range []string{s.EmptySubjects, s.EmptyPairs} {
		if _, err := writerFor(name); err != nil {
			return nil, err
		}
	}
	triples, err := writerFor(s.TriplesTable)
	if err != nil {
		return nil, err
	}
	for _, t := range g.Triples {
		triples.Write(encRow(t.Subject.Key(), "I"+t.Property.Value, t.Object.Key()))
		s.Rows[s.TriplesTable]++
		name, row := "", []string{t.Subject.Key(), t.Object.Key()}
		if t.Property.Value == rdf.RDFType {
			var ok bool
			if name, ok = s.TypeTables[t.Object.Key()]; !ok {
				name = fmt.Sprintf("%s/type_%s", prefix, refSanitize(t.Object.Key()))
				s.TypeTables[t.Object.Key()] = name
			}
			row = row[:1]
		} else {
			var ok bool
			if name, ok = s.Tables[t.Property.Value]; !ok {
				name = fmt.Sprintf("%s/vp_%s", prefix, refSanitize(t.Property.Value))
				s.Tables[t.Property.Value] = name
			}
		}
		w, err := writerFor(name)
		if err != nil {
			return nil, err
		}
		w.Write(encRow(row...))
		s.Rows[name]++
	}
	return s, refClose(writers)
}

func refClose(writers map[string]*dfs.Writer) error {
	names := make([]string, 0, len(writers))
	for n := range writers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := writers[n].Close(); err != nil {
			return err
		}
	}
	return nil
}

func refSanitize(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	short := s
	if i := strings.LastIndexAny(s, "/#"); i >= 0 && i+1 < len(s) {
		short = s[i+1:]
	}
	var b strings.Builder
	for _, r := range short {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			b.WriteRune(r)
		}
	}
	return fmt.Sprintf("%s_%x", b.String(), h.Sum64())
}

// refGroupBySubject builds term-key subject triplegroups (bare property
// IRI, object Term.Key), ordered by subject key.
func refGroupBySubject(g *rdf.Graph) []ntga.TripleGroup {
	bySubject := map[string]*ntga.TripleGroup{}
	var order []string
	for _, t := range g.Triples {
		key := t.Subject.Key()
		tg, ok := bySubject[key]
		if !ok {
			tg = &ntga.TripleGroup{Subject: key}
			bySubject[key] = tg
			order = append(order, key)
		}
		tg.Triples = append(tg.Triples, ntga.PO{Prop: t.Property.Value, Obj: t.Object.Key()})
	}
	sort.Strings(order)
	out := make([]ntga.TripleGroup, len(order))
	for i, key := range order {
		out[i] = *bySubject[key]
	}
	return out
}

func refECKey(prop, objKey string) string {
	if prop == rdf.RDFType {
		return "type=" + objKey
	}
	return prop
}

func refBuildTG(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*store.TGStore, error) {
	s := &store.TGStore{Prefix: prefix}
	writers := map[string]*dfs.Writer{}
	for _, tg := range refGroupBySubject(g) {
		props := map[string]bool{}
		for _, po := range tg.Triples {
			props[refECKey(po.Prop, po.Obj)] = true
		}
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h := fnv.New64a()
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		name := fmt.Sprintf("%s/ec_%x", prefix, h.Sum64())
		w, ok := writers[name]
		if !ok {
			var err error
			if w, err = fs.Create(name, 1); err != nil {
				return nil, err
			}
			writers[name] = w
			s.Files = append(s.Files, store.TGFile{Name: name, Props: props})
		}
		idtg := ntga.TripleGroup{Subject: d.AddString(tg.Subject)}
		for _, po := range tg.Triples {
			idtg.Triples = append(idtg.Triples, ntga.PO{Prop: d.AddString("I" + po.Prop), Obj: d.AddString(po.Obj)})
		}
		w.Write(idtg.EncodeIDs())
	}
	sort.Slice(s.Files, func(i, j int) bool { return s.Files[i].Name < s.Files[j].Name })
	return s, refClose(writers)
}

func refCollect(g *rdf.Graph) *stats.Catalog {
	type predAgg struct {
		count     int64
		subj, obj map[string]bool
	}
	preds := map[string]*predAgg{}
	perSubject := map[string]map[string]int64{}
	for _, t := range g.Triples {
		sk := t.Subject.Key()
		pa := preds[t.Property.Value]
		if pa == nil {
			pa = &predAgg{subj: map[string]bool{}, obj: map[string]bool{}}
			preds[t.Property.Value] = pa
		}
		pa.count++
		pa.subj[sk] = true
		pa.obj[t.Object.Key()] = true
		if perSubject[sk] == nil {
			perSubject[sk] = map[string]int64{}
		}
		perSubject[sk][refECKey(t.Property.Value, t.Object.Key())]++
	}
	c := &stats.Catalog{Triples: int64(g.Len()), Preds: map[string]stats.PredStat{}}
	for p, pa := range preds {
		c.Preds[p] = stats.PredStat{Count: pa.count, DistinctSubj: int64(len(pa.subj)), DistinctObj: int64(len(pa.obj))}
	}
	sets := map[string]*stats.CharSet{}
	for _, m := range perSubject {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := strings.Join(keys, "\x00")
		cs := sets[id]
		if cs == nil {
			cs = &stats.CharSet{Props: keys, PropCounts: map[string]int64{}}
			sets[id] = cs
		}
		cs.Subjects++
		for k, n := range m {
			cs.PropCounts[k] += n
		}
	}
	ids := make([]string, 0, len(sets))
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	c.Sets = make([]stats.CharSet, len(ids))
	for i, id := range ids {
		c.Sets[i] = *sets[id]
	}
	return c
}

// loaded is what a load leaves behind: the files and their metadata, the
// dictionary and the catalog.
type loaded struct {
	fs   *dfs.FS
	vp   *store.VPStore
	tg   *store.TGStore
	dict *rdf.Dict
	cat  *stats.Catalog
}

func refLoad(g *rdf.Graph) (loaded, error) {
	l := loaded{fs: dfs.New(), dict: rdf.NewDict()}
	var err error
	if l.vp, err = refBuildVP(l.fs, g, "ds/vp", l.dict); err != nil {
		return l, err
	}
	if l.tg, err = refBuildTG(l.fs, g, "ds/tg", l.dict); err != nil {
		return l, err
	}
	l.cat = refCollect(g)
	return l, nil
}

// load interns g into one Dict in two batches, its first split statements
// and the rest, as a store does, and loads the result.
func load(g *rdf.Graph, split int) (loaded, error) {
	d := rdf.NewDict()
	ts := rdf.InternTriples(d, rdf.InternTriples(d, nil, g.Triples[:split]), g.Triples[split:])
	c := mapred.NewClusterFS(mapred.DefaultConfig(), dfs.New())
	ds, err := engine.Load(c, "ds", rdf.NewIDGraph(d, ts))
	if err != nil {
		return loaded{}, err
	}
	return loaded{fs: c.FS, vp: ds.VP, tg: ds.TG, dict: ds.Dict, cat: ds.Stats}, nil
}

// dedup keeps each statement of g once, where it first occurs.
func dedup(g *rdf.Graph) *rdf.Graph {
	out := &rdf.Graph{}
	seen := map[rdf.Triple]bool{}
	for _, t := range g.Triples {
		if !seen[t] {
			seen[t] = true
			out.Add(t)
		}
	}
	return out
}

// loadDiff describes the first difference between two loads: term IDs,
// file names, record bytes in order, stored sizes, layout metadata and the
// catalog. Empty when they are equal.
func loadDiff(a, b loaded) string {
	if a.dict.Len() != b.dict.Len() {
		return fmt.Sprintf("dictionary sizes %d vs %d", a.dict.Len(), b.dict.Len())
	}
	for id := uint64(1); id <= uint64(a.dict.Len()); id++ {
		ka, _ := a.dict.Key(id)
		kb, _ := b.dict.Key(id)
		if ka != kb {
			return fmt.Sprintf("term %d is %q vs %q", id, ka, kb)
		}
	}
	names := a.fs.List("")
	if other := b.fs.List(""); !slices.Equal(names, other) {
		return fmt.Sprintf("files %q\nvs %q", names, other)
	}
	for _, name := range names {
		ra, sa, err := contents(a.fs, name)
		if err != nil {
			return err.Error()
		}
		rb, sb, err := contents(b.fs, name)
		if err != nil {
			return err.Error()
		}
		if sa != sb {
			return fmt.Sprintf("%s: stored bytes %d vs %d", name, sa, sb)
		}
		if !slices.EqualFunc(ra, rb, bytes.Equal) {
			return fmt.Sprintf("%s: records differ (%d vs %d)", name, len(ra), len(rb))
		}
	}
	switch {
	case !reflect.DeepEqual(a.vp, b.vp):
		return fmt.Sprintf("VP metadata %+v\nvs %+v", a.vp, b.vp)
	case !reflect.DeepEqual(a.tg, b.tg):
		return fmt.Sprintf("TG metadata %+v\nvs %+v", a.tg, b.tg)
	case !reflect.DeepEqual(a.cat, b.cat):
		return fmt.Sprintf("catalog %+v\nvs %+v", a.cat, b.cat)
	}
	return ""
}

func contents(fs *dfs.FS, name string) ([][]byte, int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	recs, err := f.AllRecords()
	return recs, f.StoredBytes(), err
}

// injectRepeats returns g with copies of some of its statements inserted
// at random later positions.
func injectRepeats(g *rdf.Graph, rng *rand.Rand, n int) *rdf.Graph {
	out := &rdf.Graph{Triples: slices.Clone(g.Triples)}
	for i := 0; i < n && len(out.Triples) > 0; i++ {
		from := rng.Intn(len(out.Triples))
		at := from + 1 + rng.Intn(len(out.Triples)-from)
		out.Triples = slices.Insert(out.Triples, at, out.Triples[from])
	}
	return out
}

// TestLoadMatchesReference: on every benchmark dataset, once de-duplicated,
// engine.Load gives every term the ID, writes the files, records and
// metadata, and computes the catalog the three lexical walks did; and the
// graph with repeats, generated or injected, loads exactly like its
// de-duplicated copy. Each graph is interned in two halves.
func TestLoadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range bench.Specs() {
		t.Run(spec.ID, func(t *testing.T) {
			g := spec.Generate(1)
			set := dedup(g)
			want, err := refLoad(set)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []struct {
				name string
				g    *rdf.Graph
			}{
				{"de-duplicated", set},
				{fmt.Sprintf("as generated (%d repeats)", g.Len()-set.Len()), g},
				{"with injected repeats", injectRepeats(set, rng, 200)},
			} {
				got, err := load(in.g, in.g.Len()/2)
				if err != nil {
					t.Fatal(err)
				}
				if diff := loadDiff(want, got); diff != "" {
					t.Errorf("%s: %s", in.name, diff)
				}
			}
		})
	}
}

// FuzzLoadMatchesReference loads random small graphs with repeats — few
// subjects, properties and objects, rdf:type among the properties, every
// term kind — interned in two batches split where the input's first byte
// says, and compares engine.Load with the reference over the de-duplicated
// graph.
func FuzzLoadMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{7, 0, 9, 7, 0, 9, 7, 0, 8, 1, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		term := func(b byte) rdf.Term {
			v := fmt.Sprintf("http://e/%d", b%6)
			switch b / 6 % 3 {
			case 1:
				return rdf.NewLiteral(v)
			case 2:
				return rdf.NewBlank(fmt.Sprint(b % 6))
			}
			return rdf.NewIRI(v)
		}
		props := []rdf.Term{rdf.TypeTerm, rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/q"), rdf.NewIRI("http://e/0")}
		g := &rdf.Graph{}
		for i := 0; i+2 < len(data) && i < 300; i += 3 {
			g.Add(rdf.T(term(data[i]), props[data[i+1]%4], term(data[i+2])))
		}
		want, err := refLoad(dedup(g))
		if err != nil {
			t.Fatal(err)
		}
		split := 0
		if len(data) > 0 {
			split = int(data[0]) % (g.Len() + 1)
		}
		got, err := load(g, split)
		if err != nil {
			t.Fatal(err)
		}
		if diff := loadDiff(want, got); diff != "" {
			t.Fatalf("split after %d of %d: %s", split, g.Len(), diff)
		}
	})
}

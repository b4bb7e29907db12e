package store

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func storeGraph() *rdf.Graph {
	g := &rdf.Graph{}
	g.Add(
		rdf.T(iri("p1"), rdf.TypeTerm, iri("PT1")),
		rdf.T(iri("p1"), iri("label"), lit("one")),
		rdf.T(iri("p1"), iri("pf"), iri("f1")),
		rdf.T(iri("p2"), rdf.TypeTerm, iri("PT2")),
		rdf.T(iri("p2"), iri("label"), lit("two")),
		rdf.T(iri("o1"), iri("product"), iri("p1")),
		rdf.T(iri("o1"), iri("price"), lit("10")),
	)
	return g
}

func firstRecord(t *testing.T, fs *dfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s: no records", name)
	}
	return recs[0]
}

func TestBuildVP(t *testing.T) {
	fs, d := dfs.New(), rdf.NewDict()
	vp, err := BuildVP(fs, storeGraph(), "t/vp", d)
	if err != nil {
		t.Fatal(err)
	}
	// One table per non-type property.
	for _, prop := range []string{"label", "pf", "product", "price"} {
		file, isType := vp.TableFor(algebra.PropRef{Prop: "http://e/" + prop})
		if file != vp.Tables["http://e/"+prop] || isType {
			t.Fatalf("TableFor(%s) = %q, %v", prop, file, isType)
		}
		f, err := fs.Open(file)
		if err != nil {
			t.Fatalf("open %s: %v", file, err)
		}
		if f.NumRecords() == 0 {
			t.Errorf("%s table empty", prop)
		}
		// ORC-style compression applies.
		if f.StoredBytes() >= f.Bytes() {
			t.Errorf("%s table not compressed: stored %d >= logical %d", prop, f.StoredBytes(), f.Bytes())
		}
		f.Close()
		// Rows decode as (subject, object) tuples.
		tu, err := codec.DecodeIDTuple(firstRecord(t, fs, file), d)
		if err != nil || len(tu) != 2 {
			t.Errorf("%s row = %v, %v", prop, tu, err)
		}
	}
	// rdf:type triples land in per-object partitions of 1-column rows.
	for _, typ := range []string{"PT1", "PT2"} {
		file, isType := vp.TableFor(algebra.PropRef{Prop: rdf.RDFType, Obj: iri(typ)})
		if file != vp.TypeTables[iri(typ).Key()] || !isType {
			t.Fatalf("TableFor(type=%s) = %q, %v", typ, file, isType)
		}
		f, err := fs.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		if f.NumRecords() != 1 {
			t.Errorf("type partition %s rows = %d", typ, f.NumRecords())
		}
		f.Close()
		tu, err := codec.DecodeIDTuple(firstRecord(t, fs, file), d)
		if err != nil || len(tu) != 1 {
			t.Errorf("type row = %v, %v", tu, err)
		}
	}
	// Absent types and properties resolve to the empty tables written at
	// load: one-column for a type or a constant object, two-column else.
	for _, tc := range []struct {
		ref    algebra.PropRef
		file   string
		isType bool
	}{
		{algebra.PropRef{Prop: "http://e/nope"}, vp.EmptyPairs, false},
		{algebra.PropRef{Prop: "http://e/nope", Obj: iri("x")}, vp.EmptySubjects, false},
		{algebra.PropRef{Prop: rdf.RDFType, Obj: iri("Nope")}, vp.EmptySubjects, true},
	} {
		file, isType := vp.TableFor(tc.ref)
		if file != tc.file || isType != tc.isType {
			t.Errorf("TableFor(%s) = %q, %v; want %q, %v", tc.ref.Key(), file, isType, tc.file, tc.isType)
		}
		f, err := fs.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		if f.NumRecords() != 0 {
			t.Errorf("%s holds %d rows", file, f.NumRecords())
		}
		f.Close()
	}
	if vp.Rows[vp.Tables["http://e/label"]] != 2 {
		t.Errorf("label row count = %d, want 2", vp.Rows[vp.Tables["http://e/label"]])
	}
}

func TestBuildTGEquivalenceClasses(t *testing.T) {
	fs, d := dfs.New(), rdf.NewDict()
	tg, err := BuildTG(fs, storeGraph(), "t/tg", d)
	if err != nil {
		t.Fatal(err)
	}
	// p1 {type=PT1, label, pf}, p2 {type=PT2, label}, o1 {product, price}:
	// three distinct equivalence classes.
	if len(tg.Files) != 3 {
		t.Fatalf("equivalence classes = %d, want 3", len(tg.Files))
	}
	total := 0
	for _, f := range tg.Files {
		df, err := fs.Open(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := df.AllRecords()
		df.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			g, rest, err := ntga.DecodeTripleGroupIDs(rec, d)
			if err != nil || len(rest) != 0 {
				t.Fatalf("triplegroup decode: %v", err)
			}
			total += len(g.Triples)
		}
	}
	if total != storeGraph().Len() {
		t.Errorf("triples in store = %d, want %d", total, storeGraph().Len())
	}
}

func TestFilesForPruning(t *testing.T) {
	fs := dfs.New()
	tg, err := BuildTG(fs, storeGraph(), "t/tg", rdf.NewDict())
	if err != nil {
		t.Fatal(err)
	}
	// The offer star {product, price} matches exactly one class.
	offer := tg.FilesFor([]algebra.PropRef{{Prop: "http://e/product"}, {Prop: "http://e/price"}})
	if len(offer) != 1 {
		t.Errorf("offer files = %v", offer)
	}
	// A type-constrained star prunes by type object: PT1 matches only p1's
	// class, even though both product classes have label.
	pt1 := tg.FilesFor([]algebra.PropRef{
		{Prop: rdf.RDFType, Obj: iri("PT1")},
		{Prop: "http://e/label"},
	})
	if len(pt1) != 1 {
		t.Errorf("PT1 files = %v", pt1)
	}
	pt9 := tg.FilesFor([]algebra.PropRef{{Prop: rdf.RDFType, Obj: iri("PT9")}})
	if len(pt9) != 0 {
		t.Errorf("PT9 files = %v, want none", pt9)
	}
	// Label-only stars match both product classes.
	label := tg.FilesFor([]algebra.PropRef{{Prop: "http://e/label"}})
	if len(label) != 2 {
		t.Errorf("label files = %v", label)
	}
	// Non-type constant-object refs prune on the property only.
	cobj := tg.FilesFor([]algebra.PropRef{{Prop: "http://e/label", Obj: lit("one")}})
	if len(cobj) != 2 {
		t.Errorf("constant-object label files = %v, want both classes", cobj)
	}
}

func TestECKeyForRef(t *testing.T) {
	typeRef := algebra.PropRef{Prop: rdf.RDFType, Obj: iri("PT1")}
	if got := algebra.ECKeyForRef(typeRef); got != "type="+iri("PT1").Key() {
		t.Errorf("type key = %q", got)
	}
	plain := algebra.PropRef{Prop: "http://e/p", Obj: lit("x")}
	if got := algebra.ECKeyForRef(plain); got != "http://e/p" {
		t.Errorf("plain key = %q", got)
	}
}

func TestSanitizeDistinct(t *testing.T) {
	// Different IRIs with the same local name must not collide.
	a := sanitize("http://a.org/ns#price")
	b := sanitize("http://b.org/ns#price")
	if a == b {
		t.Errorf("sanitize collision: %q", a)
	}
}

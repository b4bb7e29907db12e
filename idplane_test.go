package rapidanalytics

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/datagen"
	"rapidanalytics/internal/rdf"
)

// TestMutatedStoreMatchesOneLoad: a store that answers a query and then
// grows by Add and LoadNTriples batches continues its one Dict, so every
// catalog query gives, on all four systems, the rows, cycles, volumes and
// simulated seconds of a store loaded once with the same statements.
func TestMutatedStoreMatchesOneLoad(t *testing.T) {
	once := NewWorkloadStore(0.25, DefaultOptions())
	var doc bytes.Buffer
	if err := once.WriteNTriples(&doc); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(doc.String(), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	third := len(lines) / 3

	grown := NewStore(DefaultOptions())
	if err := grown.LoadNTriples(strings.NewReader(strings.Join(lines[:third], ""))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := grown.Query(RAPIDAnalytics, bench.Catalog[0].SPARQL); err != nil {
		t.Fatal(err)
	}
	adds := 0
	for i, line := range lines[third : 2*third] {
		// Every other statement with an IRI subject and an IRI or literal
		// object goes in through Add, the rest as one-line documents.
		g, err := rdf.ReadNTriples(strings.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		tr := g.Triples[0]
		if tr.Subject.IsIRI() && tr.Object.Kind != rdf.Blank && i%2 == 0 {
			obj := IRI(tr.Object.Value)
			if tr.Object.IsLiteral() {
				obj = Literal(tr.Object.Value)
			}
			grown.Add(tr.Subject.Value, tr.Property.Value, obj)
			adds++
		} else if err := grown.LoadNTriples(strings.NewReader(line)); err != nil {
			t.Fatal(err)
		}
	}
	if adds == 0 {
		t.Fatal("no statement went in through Add")
	}
	if err := grown.LoadNTriples(strings.NewReader(strings.Join(lines[2*third:], ""))); err != nil {
		t.Fatal(err)
	}
	if grown.NumTriples() != once.NumTriples() {
		t.Fatalf("NumTriples = %d, want %d", grown.NumTriples(), once.NumTriples())
	}
	var grownDoc bytes.Buffer
	if err := grown.WriteNTriples(&grownDoc); err != nil {
		t.Fatal(err)
	}
	if grownDoc.String() != doc.String() {
		t.Fatal("WriteNTriples of the grown store differs from the one-load store's")
	}

	for _, q := range bench.Catalog {
		for _, sys := range Systems() {
			want, ws, err := once.Query(sys, q.SPARQL)
			if err != nil {
				t.Fatalf("%s on %s, one load: %v", q.ID, sys, err)
			}
			got, gs, err := grown.Query(sys, q.SPARQL)
			if err != nil {
				t.Fatalf("%s on %s, grown: %v", q.ID, sys, err)
			}
			if diff := got.raw.Diff(want.raw); diff != "" {
				t.Errorf("%s on %s: rows differ: %s", q.ID, sys, diff)
			}
			if gs.MRCycles != ws.MRCycles || gs.ShuffleBytes != ws.ShuffleBytes ||
				gs.MaterializedBytes != ws.MaterializedBytes || gs.SimulatedSeconds != ws.SimulatedSeconds {
				t.Errorf("%s on %s: grown %d cycles, %d shuffled, %d materialised, %v sim-s; one load %d, %d, %d, %v",
					q.ID, sys, gs.MRCycles, gs.ShuffleBytes, gs.MaterializedBytes, gs.SimulatedSeconds,
					ws.MRCycles, ws.ShuffleBytes, ws.MaterializedBytes, ws.SimulatedSeconds)
			}
		}
	}
}

// TestLoadedStoreHeap: the store keeps only the Dict and the ID triples
// once a document is loaded, so loading the workload document and running
// one query grows the live heap by at most 16 MiB (28 MiB when the store
// also kept the lexical graph). Not parallel: it reads the process heap.
func TestLoadedStoreHeap(t *testing.T) {
	var doc bytes.Buffer
	if err := NewWorkloadStore(1, DefaultOptions()).WriteNTriples(&doc); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Storage = StorageMem
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(opts)
	if err := s.LoadNTriples(bytes.NewReader(doc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.QueryContext(context.Background(), RAPIDAnalytics, bench.Catalog[0].SPARQL); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(s)
	runtime.KeepAlive(doc.Bytes())
	t.Logf("loaded store: %.1f MiB", grew)
	if grew > 16 {
		t.Errorf("loading the workload document and one query grew the heap by %.1f MiB, want at most 16", grew)
	}
}

// TestWorkloadStoreDocument: the workload store writes the three generator
// graphs in order, byte for byte, and counts every statement, repeats
// included.
func TestWorkloadStoreDocument(t *testing.T) {
	var want, got bytes.Buffer
	for _, g := range []*rdf.Graph{
		datagen.GenerateBSBM(datagen.BSBMSmall()),
		datagen.GenerateChem(datagen.ChemDefault()),
		datagen.GeneratePubMed(datagen.PubMedDefault()),
	} {
		if err := rdf.WriteNTriples(&want, g); err != nil {
			t.Fatal(err)
		}
	}
	s := NewWorkloadStore(1, DefaultOptions())
	if err := s.WriteNTriples(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WriteNTriples differs from the generator graphs written in order")
	}
	if n := s.NumTriples(); n != 105896 {
		t.Errorf("NumTriples = %d, want 105896", n)
	}
}

// TestFailedLoadChangesNothing: a document whose last line is malformed
// leaves the store as it was: its dictionary, its statements and what they
// serialise to, and the data version its cached results are keyed by. A
// later good load then gives the dictionary, the document and the query
// volumes of a store that never saw the bad one.
func TestFailedLoadChangesNothing(t *testing.T) {
	var doc bytes.Buffer
	if err := NewWorkloadStore(0.1, DefaultOptions()).WriteNTriples(&doc); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(doc.String(), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	half := len(lines) / 2
	first, second := strings.Join(lines[:half], ""), strings.Join(lines[half:], "")
	// The bad document interns terms the good one lacks before the ones it
	// has, so a dictionary it left grown would shift the good one's IDs.
	var bad strings.Builder
	for i := range 200 {
		fmt.Fprintf(&bad, "<http://e/bad/%d> <http://e/bad/p> \"%d\" .\n", i, i)
	}
	bad.WriteString(second)
	bad.WriteString("<http://e/bad/s> <http://e/bad/p> .\n")
	badLine := 200 + len(lines) - half + 1

	opts := DefaultOptions()
	opts.ResultCacheBytes = 64 << 20
	load := func(s *Store, doc string) {
		t.Helper()
		if err := s.LoadNTriples(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	written := func(s *Store) string {
		t.Helper()
		var b bytes.Buffer
		if err := s.WriteNTriples(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	query := bench.Catalog[0].SPARQL
	s, clean := NewStore(opts), NewStore(opts)
	load(s, first)
	load(clean, first)
	if _, st, err := s.Query(RAPIDAnalytics, query); err != nil || st.ResultCacheHit {
		t.Fatalf("first query: hit %v, err %v", st.ResultCacheHit, err)
	}
	terms, statements, before := DictLen(s), s.NumTriples(), written(s)

	err := s.LoadNTriples(strings.NewReader(bad.String()))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", badLine)) {
		t.Fatalf("bad load: err = %v, want one on line %d", err, badLine)
	}
	if got := DictLen(s); got != terms {
		t.Errorf("dictionary holds %d terms after the failed load, want %d", got, terms)
	}
	if got := s.NumTriples(); got != statements {
		t.Errorf("NumTriples = %d after the failed load, want %d", got, statements)
	}
	if written(s) != before {
		t.Error("WriteNTriples changed with the failed load")
	}
	if _, st, err := s.Query(RAPIDAnalytics, query); err != nil || !st.ResultCacheHit {
		t.Errorf("query after the failed load: hit %v, err %v; want the cached result", st.ResultCacheHit, err)
	}

	load(s, second)
	load(clean, second)
	if got, want := DictLen(s), DictLen(clean); got != want {
		t.Errorf("dictionary holds %d terms after the good load, want %d", got, want)
	}
	if written(s) != written(clean) {
		t.Error("WriteNTriples differs from the store that never saw the bad document")
	}
	_, got, err := s.Query(RAPIDAnalytics, query)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := clean.Query(RAPIDAnalytics, query)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResultCacheHit || got.ShuffleBytes != want.ShuffleBytes || got.MaterializedBytes != want.MaterializedBytes {
		t.Errorf("after the good load: hit %v, %d shuffled, %d materialised; want a miss, %d and %d",
			got.ResultCacheHit, got.ShuffleBytes, got.MaterializedBytes, want.ShuffleBytes, want.MaterializedBytes)
	}
}

package rapidanalytics

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"rapidanalytics/internal/bench"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/mapred"
)

const apiQuery = `PREFIX e: <http://e/>
SELECT ?f ?cntF ?cntT {
  { SELECT ?f (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?off2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (COUNT(?pr) AS ?cntT)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?off1 e:product ?p1 ; e:price ?pr . } }
}`

func apiStore() *Store {
	s := NewStore(DefaultOptions())
	add := func(subj, prop string, obj Term) { s.Add("http://e/"+subj, "http://e/"+prop, obj) }
	typ := func(subj, t string) {
		s.Add("http://e/"+subj, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", IRI("http://e/"+t))
	}
	typ("p1", "PT1")
	add("p1", "label", Literal("one"))
	add("p1", "pf", IRI("http://e/f1"))
	add("p1", "pf", IRI("http://e/f2"))
	typ("p2", "PT1")
	add("p2", "label", Literal("two"))
	add("o1", "product", IRI("http://e/p1"))
	add("o1", "price", Literal("10"))
	add("o2", "product", IRI("http://e/p2"))
	add("o2", "price", Literal("20"))
	return s
}

func TestStoreQueryAllSystems(t *testing.T) {
	s := apiStore()
	ref, _, err := s.Query(Reference, apiQuery)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if ref.Len() != 2 {
		t.Fatalf("reference rows = %d, want 2 (f1, f2)", ref.Len())
	}
	for _, sys := range Systems() {
		res, stats, err := s.Query(sys, apiQuery)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Len() != ref.Len() {
			t.Errorf("%s: rows = %d, want %d", sys, res.Len(), ref.Len())
		}
		if stats.MRCycles == 0 {
			t.Errorf("%s: no cycles", sys)
		}
		if stats.SimulatedSeconds <= 0 {
			t.Errorf("%s: no simulated time", sys)
		}
	}
}

func TestQueryCompiledAndReuse(t *testing.T) {
	s := apiStore()
	r1, _, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := s.Query(HiveNaive, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Errorf("row counts differ: %d vs %d", r1.Len(), r2.Len())
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not sparql"); err == nil {
		t.Error("Compile accepted garbage")
	}
	if _, err := Compile(`PREFIX e: <http://e/> SELECT ?s { ?s e:p ?o . }`); err == nil {
		t.Error("Compile accepted a non-analytical query (no aggregates)")
	}
}

func TestUnknownSystem(t *testing.T) {
	s := apiStore()
	if _, _, err := s.Query(System("nope"), apiQuery); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestNTriplesRoundTripThroughStore: a store reads back what it writes,
// an IRI with characters IRIREF forbids included (written as UCHAR).
func TestNTriplesRoundTripThroughStore(t *testing.T) {
	s := apiStore()
	s.Add("http://s>", "http://e/p q", IRI("http://e/{o}"))
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(DefaultOptions())
	if err := s2.LoadNTriples(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.NumTriples() != s.NumTriples() {
		t.Errorf("triples = %d, want %d", s2.NumTriples(), s.NumTriples())
	}
	var again bytes.Buffer
	if err := s2.WriteNTriples(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Errorf("round trip wrote %q, want %q", again.String(), buf.String())
	}
	res, _, err := s2.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestExplain(t *testing.T) {
	out, err := Explain(apiQuery)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	for _, want := range []string{"2 grouping(s)", "patterns overlap", "α(GP1)", "pf != {}", "α(GP2): true", "rapidanalytics", "hive-naive"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
}

// TestPredictCyclesMatchesExecution: the cycle count PredictCycles reads
// off an empty store is the count the same engine runs on real data — the
// API graph, and every catalog query on each of its datasets (the skew
// graphs, where rapid.JoinChain re-plans, included).
func TestPredictCyclesMatchesExecution(t *testing.T) {
	check := func(t *testing.T, s *Store, id, query string) {
		q, err := Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			_, stats, err := s.Query(sys, query)
			if err != nil {
				t.Fatal(err)
			}
			if got := PredictCycles(q, sys); got != stats.MRCycles {
				t.Errorf("%s on %s: predicted %d cycles, executed %d", id, sys, got, stats.MRCycles)
			}
		}
	}
	check(t, apiStore(), "api", apiQuery)
	api, _ := Compile(apiQuery)
	for _, sys := range []System{Reference, "spark"} {
		if got := PredictCycles(api, sys); got != 0 {
			t.Errorf("%s: predicted %d cycles, want 0", sys, got)
		}
	}
	for _, spec := range bench.Specs() {
		t.Run(spec.ID, func(t *testing.T) {
			s := NewStore(DefaultOptions())
			s.addGraph(spec.Generate(0.5))
			for _, q := range bench.Catalog {
				if q.Dataset == spec.CatalogName {
					check(t, s, q.ID, q.SPARQL)
				}
			}
		})
	}
}

// recordingBackend records the names of the writes — creates and
// deletes — that reach a DFS backend.
type recordingBackend struct {
	dfs.Backend
	mu     sync.Mutex
	writes []string
}

func (b *recordingBackend) Create(name string, ratio float64) (dfs.FileWriter, error) {
	b.record(name)
	return b.Backend.Create(name, ratio)
}

func (b *recordingBackend) Delete(name string) error {
	b.record(name)
	return b.Backend.Delete(name)
}

func (b *recordingBackend) record(name string) {
	b.mu.Lock()
	b.writes = append(b.writes, name)
	b.mu.Unlock()
}

// TestPredictCyclesRunsNoJob: PredictCycles only plans. The one thing it
// writes is the empty dataset it plans over; a job that ran would have
// created or streamed its output under tmp/.
func TestPredictCyclesRunsNoJob(t *testing.T) {
	for _, cq := range bench.Catalog {
		q, err := Compile(cq.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			b := &recordingBackend{Backend: dfs.NewMemBackend()}
			if n := predictCycles(dfs.NewWithBackend(b), q, sys); n == 0 {
				t.Errorf("%s on %s: no cycles predicted", cq.ID, sys)
			}
			for _, name := range b.writes {
				if !strings.HasPrefix(name, "predict/") {
					t.Errorf("%s on %s: planning wrote %s", cq.ID, sys, name)
				}
			}
		}
	}
}

// TestPredictCyclesPinsMemoryStorage: RAPID_STORAGE=disk changes no
// predicted count, and the empty dataset PredictCycles plans over writes
// nothing to the temporary directory.
func TestPredictCyclesPinsMemoryStorage(t *testing.T) {
	type cell struct {
		id   string
		q    *Compiled
		sys  System
		want int
	}
	var cells []cell
	for _, cq := range bench.Catalog {
		q, err := Compile(cq.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			cells = append(cells, cell{cq.ID, q, sys, PredictCycles(q, sys)})
		}
	}
	tmp := t.TempDir()
	t.Setenv("RAPID_STORAGE", StorageDisk)
	t.Setenv("TMPDIR", tmp)
	for _, c := range cells {
		if got := PredictCycles(c.q, c.sys); got != c.want {
			t.Errorf("%s on %s: %d cycles under RAPID_STORAGE=disk, %d in memory", c.id, c.sys, got, c.want)
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("PredictCycles left %d entries in TMPDIR (err %v)", len(left), err)
	}
}

// TestStoreHonorsDataDirEnv: with RAPID_STORAGE=disk and RAPID_DATA_DIR
// set, a store without a DataDir of its own loads into a fresh directory
// under RAPID_DATA_DIR.
func TestStoreHonorsDataDirEnv(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("RAPID_STORAGE", StorageDisk)
	t.Setenv("RAPID_DATA_DIR", dir)
	s := apiStore()
	if _, _, err := s.Query(RAPIDAnalytics, apiQuery); err != nil {
		t.Fatal(err)
	}
	loads, err := filepath.Glob(filepath.Join(dir, "rapidfs-*"))
	if err != nil || len(loads) != 1 {
		t.Errorf("loads under RAPID_DATA_DIR: %v (err %v), want one", loads, err)
	}
}

// TestMisspeltStorageFailsEverywhere: every entry point chooses its DFS
// backend through dfs.Resolve, so a RAPID_STORAGE value that names no
// backend fails all three instead of quietly running in memory.
func TestMisspeltStorageFailsEverywhere(t *testing.T) {
	t.Setenv("RAPID_STORAGE", "Disk")
	t.Setenv("RAPID_DATA_DIR", t.TempDir())
	t.Run("mapred.NewCluster", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("NewCluster ran with RAPID_STORAGE=Disk; want a panic")
			}
		}()
		mapred.NewCluster(mapred.DefaultConfig())
	})
	t.Run("Store", func(t *testing.T) {
		if _, _, err := apiStore().Query(RAPIDAnalytics, apiQuery); !errors.Is(err, ErrStorage) {
			t.Errorf("Query with RAPID_STORAGE=Disk = %v; want ErrStorage", err)
		}
	})
	t.Run("bench.Loader", func(t *testing.T) {
		l := bench.NewLoader()
		l.SizeMult = 0.05
		if _, _, err := l.Load("bsbm-500k"); err == nil {
			t.Error("Loader.Load with RAPID_STORAGE=Disk succeeded; want an error")
		}
	})
}

func TestGeneratedStores(t *testing.T) {
	b := NewBSBMStore(50, DefaultOptions())
	if b.NumTriples() == 0 {
		t.Fatal("BSBM store empty")
	}
	c := NewChemStore(80, DefaultOptions())
	if c.NumTriples() == 0 {
		t.Fatal("Chem store empty")
	}
	p := NewPubMedStore(60, DefaultOptions())
	if p.NumTriples() == 0 {
		t.Fatal("PubMed store empty")
	}
	// Generators are deterministic.
	b2 := NewBSBMStore(50, DefaultOptions())
	if b2.NumTriples() != b.NumTriples() {
		t.Errorf("BSBM generation nondeterministic: %d vs %d", b2.NumTriples(), b.NumTriples())
	}
	// A quick query over the generated BSBM store.
	res, _, err := b.Query(RAPIDAnalytics, "PREFIX bsbm: <"+BSBMNamespace+">\n"+
		`SELECT (COUNT(?pr) AS ?cnt) { ?o bsbm:product ?p ; bsbm:price ?pr . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows()[0][0] == "0" {
		t.Errorf("BSBM offer count = %v", res.Rows())
	}
}

func TestStoreInvalidatedOnAdd(t *testing.T) {
	s := apiStore()
	before, _, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	// New product with feature f9 and an offer: per-feature rows grow.
	s.Add("http://e/p9", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", IRI("http://e/PT1"))
	s.Add("http://e/p9", "http://e/label", Literal("nine"))
	s.Add("http://e/p9", "http://e/pf", IRI("http://e/f9"))
	s.Add("http://e/o9", "http://e/product", IRI("http://e/p9"))
	s.Add("http://e/o9", "http://e/price", Literal("99"))
	after, _, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != before.Len()+1 {
		t.Errorf("rows after add = %d, want %d", after.Len(), before.Len()+1)
	}
}

// TestMutationReclaimsSupersededDiskLoad: a mutation removes the disk
// directory of the load it supersedes, and the next query materialises
// and answers from a fresh one.
func TestMutationReclaimsSupersededDiskLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := apiStore().WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Storage, opts.DataDir = StorageDisk, t.TempDir()
	s := NewStore(opts)
	if err := s.LoadNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(RAPIDAnalytics, apiQuery); err != nil {
		t.Fatal(err)
	}
	load1 := filepath.Join(opts.DataDir, "load-1")
	if _, err := os.Stat(load1); err != nil {
		t.Fatalf("first load not on disk: %v", err)
	}
	s.Add("http://e/o9", "http://e/product", IRI("http://e/p1"))
	s.Add("http://e/o9", "http://e/price", Literal("5"))
	if _, err := os.Stat(load1); !os.IsNotExist(err) {
		t.Errorf("superseded load-1 still on disk (stat: %v)", err)
	}
	got, _, err := s.Query(RAPIDAnalytics, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Query(Reference, apiQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.raw.Diff(want.raw) != "" {
		t.Errorf("after reload rows = %v, want %v", got.Rows(), want.Rows())
	}
}

func TestConcurrentQueries(t *testing.T) {
	s := apiStore()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		sys := Systems()[i%len(Systems())]
		wg.Add(1)
		go func(sys System) {
			defer wg.Done()
			res, _, err := s.Query(sys, apiQuery)
			if err != nil {
				errs <- err
				return
			}
			if res.Len() != 2 {
				errs <- fmt.Errorf("%s: rows = %d", sys, res.Len())
			}
		}(sys)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	fs, err := StoreFS(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.OpenHandles(); n != 0 {
		t.Errorf("%d DFS handles left open", n)
	}
}

// Result cells are shown by column: a grouping value loses its term-key
// tag, and an aggregate value keeps every byte whatever its first letter,
// on every system and the reference alike.
func TestResultDisplayByColumn(t *testing.T) {
	s := NewStore(DefaultOptions())
	for i, city := range []string{"London", "Paris", "Berlin", "Lima"} {
		subj := fmt.Sprintf("http://e/s%d", i)
		s.Add(subj, "http://e/city", Literal(city))
		s.Add(subj, "http://e/g", IRI([]string{"abc", "http://e/x"}[i%2]))
	}
	const q = `PREFIX e: <http://e/>
SELECT ?g (MIN(?c) AS ?m) (MAX(?c) AS ?x) { ?s e:city ?c ; e:g ?g } GROUP BY ?g`
	want := map[string]string{"abc": "Berlin London", "http://e/x": "Lima Paris"}
	for _, sys := range append(Systems(), Reference) {
		res, _, err := s.Query(sys, q)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		got := map[string]string{}
		for _, r := range res.Rows() {
			got[r[0]] = r[1] + " " + r[2]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows %v, want %v", sys, got, want)
		}
		if out := res.String(); !strings.Contains(out, "Berlin") || strings.Contains(out, "Iabc") {
			t.Errorf("%s: table\n%s", sys, out)
		}
	}
}

// ORDER BY compares a lexical aggregate column as it is: only term-key
// columns carry a tag to strip. Stripping a first byte from every value
// ordered MIN(?c) over Paris, Berlin and Lima as "aris", "erlin", "ima".
func TestOrderByLexicalAggregate(t *testing.T) {
	s := NewStore(DefaultOptions())
	for i, city := range []string{"Paris", "Berlin", "Lima"} {
		subj := fmt.Sprintf("http://e/s%d", i)
		s.Add(subj, "http://e/city", Literal(city))
		s.Add(subj, "http://e/g", IRI(fmt.Sprintf("http://e/g%d", i)))
	}
	const q = `PREFIX e: <http://e/>
SELECT ?g (MIN(?c) AS ?m) { ?s e:city ?c ; e:g ?g } GROUP BY ?g ORDER BY ?m`
	for _, sys := range append(Systems(), Reference) {
		res, _, err := s.Query(sys, q)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		var got []string
		for _, r := range res.Rows() {
			got = append(got, r[1])
		}
		if want := []string{"Berlin", "Lima", "Paris"}; !slices.Equal(got, want) {
			t.Errorf("%s: ordered %v, want %v", sys, got, want)
		}
	}
}

// The free list of task scratch lives as long as the store's load, so its
// size is what a load keeps between queries: after one catalog pass of
// every system on the workload graph it holds at most 12 MiB (≈5.5 MB on
// the 2-core box: pages 1.8, entry scratch 1.3, values scratch 2.2,
// builders 0.2). Its pages are bounded by 4 MiB, each entry or values
// scratch by 4 MiB and by the largest task's and group's.
func TestFreeListRetainedAfterCatalogPass(t *testing.T) {
	s := NewWorkloadStore(1, DefaultOptions())
	for _, q := range bench.Catalog {
		for _, sys := range Systems() {
			if _, _, err := s.Query(sys, q.SPARQL); err != nil {
				t.Fatalf("%s on %s: %v", q.ID, sys, err)
			}
		}
	}
	pages, entries, values, builders, err := RetainedScratch(s)
	if err != nil {
		t.Fatal(err)
	}
	const mb = 1 << 20
	total := pages + entries + values + builders
	t.Logf("free list holds %.2f MiB: pages %.2f, entry scratch %.2f, values scratch %.2f, builders %.2f",
		float64(total)/mb, float64(pages)/mb, float64(entries)/mb, float64(values)/mb, float64(builders)/mb)
	if total > 12*mb {
		t.Errorf("free list holds %d bytes after one catalog pass, bound %d", total, 12*mb)
	}
}

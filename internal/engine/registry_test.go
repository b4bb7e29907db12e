package engine_test

import (
	"sync"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/core"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/hive"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rapid"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/refimpl"
	"rapidanalytics/internal/sparql"
)

// subResults is a sub-result cache that takes every composite it is
// offered.
type subResults struct {
	mu       sync.Mutex
	contents map[string]dfs.Content
}

func (c *subResults) Get(key string) (dfs.Content, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	content, ok := c.contents[key]
	return content, ok
}

func (c *subResults) Put(key string, content dfs.Content) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contents[key] = content
}

// checkedEngine plans with e and hangs a check on every stage: once the
// stage's job and hooks have run, its output exists and no plan output is
// a backend file.
type checkedEngine struct {
	engine.Engine
	t *testing.T
}

func (e *checkedEngine) Plan(c *mapred.Cluster, ds *engine.Dataset, aq *algebra.AnalyticalQuery) (*engine.Plan, error) {
	p, err := e.Engine.Plan(c, ds, aq)
	if err != nil {
		return nil, err
	}
	for i := range p.Stages {
		st := &p.Stages[i]
		out, after := st.Out, st.After
		st.After = func(c *mapred.Cluster, m *mapred.Metrics) error {
			if after != nil {
				if err := after(c, m); err != nil {
					return err
				}
			}
			if listed := c.FS.List("tmp/"); len(listed) != 0 {
				e.t.Errorf("%s: after stage %s the backend holds %v", e.Name(), out, listed)
			}
			if !c.FS.Exists(out) {
				e.t.Errorf("%s: output %s of its stage does not exist", e.Name(), out)
			}
			return nil
		}
	}
	return p, nil
}

// graph is a small shop: products of two types with features, their
// offers and the offers' vendors.
func graph() *rdf.Graph {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }
	g := &rdf.Graph{}
	for i, p := range []struct{ name, typ, feature string }{
		{"p1", "PT1", "f1"}, {"p2", "PT1", "f2"}, {"p3", "PT1", "f1"}, {"p4", "PT2", "f2"},
	} {
		g.Add(rdf.T(iri(p.name), rdf.TypeTerm, iri(p.typ)))
		g.Add(rdf.T(iri(p.name), iri("label"), rdf.NewLiteral("label-"+p.name)))
		g.Add(rdf.T(iri(p.name), iri("pf"), iri(p.feature)))
		for j, price := range []string{"10", "25"} {
			o := iri("o" + p.name + price)
			g.Add(rdf.T(o, iri("product"), iri(p.name)))
			g.Add(rdf.T(o, iri("price"), rdf.NewLiteral(price)))
			g.Add(rdf.T(o, iri("vendor"), iri([]string{"v1", "v2"}[(i+j)%2])))
		}
	}
	g.Add(rdf.T(iri("v1"), iri("country"), rdf.NewLiteral("UK")))
	g.Add(rdf.T(iri("v2"), iri("country"), rdf.NewLiteral("DE")))
	return g
}

const shop = "PREFIX e: <http://e/>\n"

// On a disk-backed DFS every job output, the GROUP BY ALL repair's
// rewrite and a cached composite's attached content live in the FS's
// in-memory registry: no stage leaves a plan output in the backend, each
// stage's output exists once it has run, the rows are the oracle's, and
// no handle stays open and no file live once the execution ends.
// RAPIDAnalytics runs twice, the second time over the composites the
// first cached.
func TestOutputsStayInRegistryOnDisk(t *testing.T) {
	g := graph()
	queries := map[string]string{
		"multi-grouping": shop + `SELECT ?f ?c ?cntF ?cntC {
  { SELECT ?f ?c (COUNT(?pr2) AS ?cntF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f .
      ?o2 e:product ?p2 ; e:price ?pr2 ; e:vendor ?v2 . ?v2 e:country ?c . } GROUP BY ?f ?c }
  { SELECT ?c (COUNT(?pr) AS ?cntC)
    { ?p1 a e:PT1 ; e:label ?l1 .
      ?o1 e:product ?p1 ; e:price ?pr ; e:vendor ?v1 . ?v1 e:country ?c . } GROUP BY ?c }
}`,
		"group-by-all-empty": shop + `SELECT (COUNT(?x) AS ?n) (SUM(?x) AS ?s) { ?p a e:PT9 ; e:pf ?x . }`,
		"cached-composite": shop + `SELECT ?f ?sumF ?sumT {
  { SELECT ?f (SUM(?pr2) AS ?sumF)
    { ?p2 a e:PT1 ; e:label ?l2 ; e:pf ?f . ?o2 e:product ?p2 ; e:price ?pr2 . } GROUP BY ?f }
  { SELECT (SUM(?pr) AS ?sumT)
    { ?p1 a e:PT1 ; e:label ?l1 . ?o1 e:product ?p1 ; e:price ?pr . } }
}`,
	}
	for name, qs := range queries {
		t.Run(name, func(t *testing.T) {
			parsed := sparql.MustParse(qs)
			aq, err := algebra.Build(parsed)
			if err != nil {
				t.Fatal(err)
			}
			d := rdf.NewDict()
			want, err := refimpl.Execute(parsed, d, rdf.InternTriples(d, nil, g.Triples))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatal("the oracle returned no rows: a weak fixture")
			}
			ra := &core.Engine{Opts: core.DefaultOptions(), SubResults: &subResults{contents: map[string]dfs.Content{}}}
			var raCycles []int
			for _, inner := range []engine.Engine{hive.NewNaive(), hive.NewMQO(), rapid.New(), ra, ra} {
				fs, err := dfs.NewDisk(t.TempDir(), 2)
				if err != nil {
					t.Fatal(err)
				}
				cfg := mapred.DefaultConfig()
				cfg.ExecSplitBytes = 256
				cfg.SpillThresholdBytes = 64
				c := mapred.NewClusterFS(cfg, fs)
				ds, err := engine.Load(c, "ds", rdf.Intern(g, rdf.NewDict()))
				if err != nil {
					t.Fatal(err)
				}
				e := &checkedEngine{Engine: inner, t: t}
				got, wm, err := engine.Execute(c, ds, e, aq)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				if inner == ra {
					raCycles = append(raCycles, wm.Cycles())
				}
				if diff := want.Diff(got); diff != "" {
					t.Errorf("%s differs from the oracle: %s", e.Name(), diff)
				}
				if n := fs.OpenHandles(); n != 0 {
					t.Errorf("%s: %d DFS handles left open", e.Name(), n)
				}
				if left := append(fs.List("tmp/"), fs.List("_spill/")...); len(left) != 0 {
					t.Errorf("%s: %v left in the backend", e.Name(), left)
				}
				if n := fs.LiveStreams(); n != 0 {
					t.Errorf("%s: %d files live", e.Name(), n)
				}
			}
			if name == "cached-composite" && raCycles[1] >= raCycles[0] {
				t.Errorf("%s ran %v cycles: the second run did not reuse the cached composite", ra.Name(), raCycles)
			}
		})
	}
}

package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/rdf"
	"rapidanalytics/internal/sparql"
)

// kvEmit is one emit, its value copied when it was made.
type kvEmit struct {
	key   string
	value []byte
}

// runReducer feeds groups to red in order and returns every emit, or the
// first error.
func runReducer(red mapred.Reducer, groups []kvGroup) ([]kvEmit, error) {
	var out []kvEmit
	for _, g := range groups {
		err := red.Reduce(g.key, g.values, func(key string, value []byte) {
			out = append(out, kvEmit{key: strings.Clone(key), value: bytes.Clone(value)})
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

type kvGroup struct {
	key    string
	values [][]byte
}

// randomStream draws groupings and key groups of encoded partial states:
// GROUP BY ALL and grouped, with NULL group values and HAVING, keys tagged
// exactly when there is more than one grouping.
func randomStream(rng *rand.Rand, d *rdf.Dict, terms []uint64) ([]Grouping, []refSpec, []kvGroup) {
	funcs := []sparql.AggFunc{sparql.Count, sparql.Sum, sparql.Avg, sparql.Min, sparql.Max}
	n := 1 + rng.Intn(3)
	groupings := make([]Grouping, n)
	specs := make([]refSpec, n)
	width := make([]int, n)
	for i := range groupings {
		aggs := make([]algebra.AggSpec, 1+rng.Intn(3))
		for j := range aggs {
			aggs[j] = algebra.AggSpec{Func: funcs[rng.Intn(len(funcs))], Var: "v", As: fmt.Sprintf("a%d", j)}
		}
		var having func([]string) bool
		if rng.Intn(2) == 0 {
			sq := &algebra.Subquery{Aggs: aggs, Having: []algebra.HavingPred{{AggIndex: 0, Op: ">", Value: float64(rng.Intn(20))}}}
			having = sq.HavingPassed
		}
		groupings[i] = Grouping{Aggs: aggs, Having: having}
		specs[i] = refSpec{ID: i, Aggs: aggs, Having: having}
		width[i] = rng.Intn(3) // 0: GROUP BY ALL
	}
	var groups []kvGroup
	seen := map[string]bool{}
	for k := 0; k < 40; k++ {
		g := rng.Intn(n)
		var key []byte
		if n > 1 {
			key = codec.AppendUvarint(key, uint64(g))
		}
		for w := 0; w < width[g]; w++ {
			id := uint64(0) // NULL
			if rng.Intn(5) != 0 {
				id = terms[rng.Intn(len(terms))]
			}
			key = codec.AppendUvarint(key, id)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		st := algebra.NewMultiAggState(groupings[g].Aggs)
		grp := kvGroup{key: string(key)}
		for v := 1 + rng.Intn(4); v > 0; v-- {
			st.Reset()
			for u := rng.Intn(4); u > 0; u-- {
				for _, s := range st.States {
					s.Update(fmt.Sprintf("L%d", rng.Intn(30)))
				}
			}
			grp.values = append(grp.values, st.AppendEncode(nil))
		}
		groups = append(groups, grp)
	}
	return groupings, specs, groups
}

// The shared merger emits exactly what Hive's and TG_AgJ's mergers did, as
// combiner and as reducer, on seeded partial-state streams.
func TestAggMergerMatchesReferences(t *testing.T) {
	d := rdf.NewDict()
	var terms []uint64
	for _, k := range []string{"Ihttp://e/a", "Ihttp://e/b", "LUK", "L42", "B_b1"} {
		terms = append(terms, d.Add(k))
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		groupings, specs, groups := randomStream(rng, d, terms)
		isTagged := len(groupings) > 1
		specByID := map[int]refSpec{}
		for _, sp := range specs {
			specByID[sp.ID] = sp
		}
		for _, final := range []bool{false, true} {
			var dict *rdf.Dict
			if final {
				dict = d
			}
			shared := NewAggMerger(groupings, dict)
			got, err := runReducer(shared, groups)
			if err != nil {
				t.Fatalf("trial %d final=%v: %v", trial, final, err)
			}
			refs := map[string]mapred.Reducer{"tgops": refAggJoinMerger(specByID, d, isTagged, final)}
			if !isTagged {
				refs["hive"] = newRefHiveMerger(specs[0].Aggs, final, specs[0].Having, d)
			}
			for name, ref := range refs {
				want, err := runReducer(ref, groups)
				if err != nil {
					t.Fatalf("trial %d final=%v: %s reference: %v", trial, final, name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d final=%v tagged=%v: shared merger emitted\n%q\n%s reference emitted\n%q", trial, final, isTagged, got, name, want)
				}
			}
		}
	}
}

// A tagged key whose tag names no grouping is an error, not a row, in the
// shared merger as in the TG_AgJ reference.
func TestAggMergerRejectsUnknownTag(t *testing.T) {
	groupings := []Grouping{{Aggs: []algebra.AggSpec{{Func: sparql.Count, Var: "v", As: "n"}}}, {Aggs: []algebra.AggSpec{{Func: sparql.Sum, Var: "v", As: "s"}}}}
	st := algebra.NewMultiAggState(groupings[0].Aggs).AppendEncode(nil)
	specByID := map[int]refSpec{0: {ID: 0, Aggs: groupings[0].Aggs}, 1: {ID: 1, Aggs: groupings[1].Aggs}}
	for _, red := range []mapred.Reducer{
		NewAggMerger(groupings, nil), NewAggMerger(groupings, rdf.NewDict()),
		refAggJoinMerger(specByID, rdf.NewDict(), true, false), refAggJoinMerger(specByID, rdf.NewDict(), true, true),
	} {
		for _, key := range []string{string(codec.AppendUvarint(nil, 2)), ""} {
			if err := red.Reduce(key, [][]byte{st}, func(string, []byte) { t.Error("emitted under a bad tag") }); err == nil {
				t.Errorf("key %q: no error", key)
			}
		}
	}
}

// The same subquery rows give the same result whether they reach the finish
// path as a file per subquery or as one tagged file, including a GROUP BY
// ALL side that matched nothing and carries a HAVING its default row passes
// (threshold 0) or fails (threshold 1).
func TestLayoutsAgree(t *testing.T) {
	const q = `PREFIX e: <http://e/>
SELECT ?g ?cntG ?cntT ?sumZ {
  { SELECT ?g (COUNT(?x) AS ?cntG) { ?s e:g ?g ; e:x ?x . } GROUP BY ?g }
  { SELECT (COUNT(?y) AS ?cntT) { ?s2 e:y ?y . } HAVING (COUNT(?y) >= %d) }
  { SELECT ?g (SUM(?z) AS ?sumZ) { ?s3 e:g ?g ; e:z ?z . } GROUP BY ?g }
}`
	rows := [][]codec.Tuple{
		{{"Ig1", "3"}, {"Ig2", "5"}, {algebra.Null, "1"}},
		nil,
		{{"Ig3", "4"}, {"Ig1", "12"}, {algebra.Null, "2"}},
	}
	for threshold, wantRows := range []int{2, 0} {
		aq := mustAQ(t, fmt.Sprintf(q, threshold))
		perFile := mapred.NewCluster(mapred.DefaultConfig())
		var files []string
		for i, rs := range rows {
			name := fmt.Sprintf("sub%d", i)
			var recs [][]byte
			for _, r := range rs {
				recs = append(recs, r.Encode())
			}
			writeRecs(t, perFile.FS, name, recs...)
			files = append(files, name)
		}
		a, _, err := finish(perFile, aq, files)
		if err != nil {
			t.Fatal(err)
		}
		oneFile := mapred.NewCluster(mapred.DefaultConfig())
		var recs [][]byte
		for i := len(rows) - 1; i >= 0; i-- {
			for _, r := range rows[i] {
				recs = append(recs, append(codec.Tuple{fmt.Sprint(i)}, r...).Encode())
			}
		}
		writeRecs(t, oneFile.FS, "tagged", recs...)
		b, _, err := finish(oneFile, aq, []string{"tagged"})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("threshold %d: layouts disagree: %s", threshold, a.Diff(b))
		}
		if len(a.Rows) != wantRows {
			t.Errorf("threshold %d: %d rows, want %d: %v", threshold, len(a.Rows), wantRows, a.Rows)
		}
	}
}

package bench

import (
	"testing"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/engine"
	"rapidanalytics/internal/mapred"
	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/stats"
)

// modeScale is the dataset size the deleted CI smokes ran at: small enough
// for seconds, large enough that every mode engages.
const modeScale = 0.05

// mgCatalog is the full multi-grouping catalog on its paper deployments.
var mgCatalog = []struct {
	dataset string
	queries []string
}{
	{"bsbm-500k", []string{"MG1", "MG2", "MG3", "MG4"}},
	{"chem", []string{"MG6", "MG7", "MG8", "MG9", "MG10"}},
	{"pubmed", []string{"MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"}},
}

func spillRuns(wm *mapred.WorkflowMetrics) (n int64) {
	for _, m := range wm.Jobs {
		n += m.SpillRuns
	}
	return n
}

// TestModesIdentical is the one engine-level proof that the remaining
// "identical either way" execution modes are: the full MG catalog on every
// engine, run under both modes of a pair, must return Equal rows and
// job-for-job equal volume metrics outside the fields the pair names. A
// pair whose mode never engaged compared a configuration with itself, so
// each pair also requires spill runs on its b side.
func TestModesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full MG catalog x 4 engines x 3 modes skipped in -short mode")
	}
	const spillBytes = 4 << 10
	mode := func(storage string, spill int64) *Loader {
		l := NewLoader()
		l.SizeMult, l.Storage, l.DataDir = modeScale, storage, t.TempDir()
		l.SpillThresholdBytes = spill
		return l
	}
	plain, spilling := mode("mem", 0), mode("mem", spillBytes)
	pairs := []struct {
		name string
		a, b *Loader
		// mayDiffer zeroes the Metrics fields the pair is allowed to differ in.
		mayDiffer func(m *mapred.Metrics)
		spills    int64
	}{
		// An equal threshold on both sides, so the spill path runs through
		// either backend and every volume, spill counters included, matches.
		{name: "mem vs disk", a: spilling, b: mode("disk", spillBytes),
			mayDiffer: func(*mapred.Metrics) {}},
		// A combiner runs once per spill run, so under a threshold a job
		// with one shuffles a few more, less-combined records: the
		// map-output volumes move, and SimulatedRedTasks and SimSeconds,
		// which the cost model derives from them, follow. What a job reads,
		// emits, groups and writes does not depend on the threshold.
		{name: "no-spill vs spill", a: plain, b: spilling,
			mayDiffer: func(m *mapred.Metrics) {
				m.SpillRuns, m.SpillRecords, m.SpillBytes = 0, 0, 0
				m.MapOutputRecords, m.MapOutputBytes = 0, 0
				m.SimulatedRedTasks, m.SimSeconds = 0, 0
			}},
	}

	type outcome struct {
		res *engine.Result
		wm  *mapred.WorkflowMetrics
	}
	for _, entry := range mgCatalog {
		for _, id := range entry.queries {
			_, aq, err := compile(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range Engines() {
				ran := map[*Loader]outcome{}
				exec := func(l *Loader) outcome {
					if o, ok := ran[l]; ok {
						return o
					}
					c, ds, err := l.Load(entry.dataset)
					if err != nil {
						t.Fatal(err)
					}
					res, wm, err := engine.Execute(c, ds, e, aq)
					if err != nil {
						t.Fatalf("%s on %s via %s: %v", id, entry.dataset, e.Name(), err)
					}
					ran[l] = outcome{res, wm}
					return ran[l]
				}
				for i := range pairs {
					p := &pairs[i]
					a, b := exec(p.a), exec(p.b)
					if !a.res.Equal(b.res) {
						t.Errorf("%s: %s via %s: rows differ: %s", p.name, id, e.Name(), a.res.Diff(b.res))
					}
					if len(a.wm.Jobs) != len(b.wm.Jobs) {
						t.Errorf("%s: %s via %s: %d vs %d cycles", p.name, id, e.Name(), len(a.wm.Jobs), len(b.wm.Jobs))
						continue
					}
					for j := range a.wm.Jobs {
						va, vb := a.wm.Jobs[j].Volumes(), b.wm.Jobs[j].Volumes()
						p.mayDiffer(&va)
						p.mayDiffer(&vb)
						if va != vb {
							t.Errorf("%s: %s via %s: job %s volumes differ:\n a %+v\n b %+v", p.name, id, e.Name(), va.Job, va, vb)
						}
					}
					p.spills += spillRuns(b.wm)
				}
			}
		}
	}
	for _, p := range pairs {
		if p.spills == 0 {
			t.Errorf("%s: the mode never engaged (no spill run): the pair proved nothing", p.name)
		}
	}
}

func countReplans(sn *obs.Snapshot) (n int) {
	sn.Walk(func(s *obs.Snapshot) {
		if s.Kind == obs.KindPlanner && s.Name == "re-plan" {
			n++
		}
	})
	return n
}

// chainCard sums the estimator-predicted intermediate cardinalities along a
// join order: the planner's own measure of a plan's cost.
func chainCard(est *stats.Estimator, order []algebra.Join) (sum float64) {
	if len(order) == 0 {
		return 0
	}
	acc := est.StarCard(order[0].Left)
	for _, e := range order {
		acc = est.JoinCard(acc, est.StarCard(e.Right), e)
		sum += acc
	}
	return sum
}

// TestPlannerOnSkew keeps the planner's two gates on the adversarially
// skewed graphs: some SK run must re-plan mid-query (the super-node graph
// makes an estimate wrong by more than the re-plan ratio) with rows still
// matching the oracle, and the statistics-driven join order must never
// predict more intermediate rows than the star-0-first order it replaced.
func TestPlannerOnSkew(t *testing.T) {
	h := NewHarness(true)
	h.Loader.SizeMult = modeScale
	replans := 0
	for _, dsID := range []string{"bsbm-zipf", "bsbm-supernode"} {
		for _, id := range []string{"SK1", "SK2"} {
			rs, err := h.RunTraced(id, dsID, Engines())
			if err != nil {
				t.Fatalf("%s on %s: %v", id, dsID, err)
			}
			for _, r := range rs {
				if !r.Verified {
					t.Errorf("%s on %s via %s: not verified", id, dsID, r.Engine)
				}
				replans += countReplans(r.Span)
			}

			_, aq, err := compile(id)
			if err != nil {
				t.Fatal(err)
			}
			_, ds, err := h.Loader.Load(dsID)
			if err != nil {
				t.Fatal(err)
			}
			gp := aq.Subqueries[0].Pattern
			refs := make([][]algebra.PropRef, len(gp.Stars))
			for i, st := range gp.Stars {
				refs[i] = st.Props()
			}
			est := stats.NewEstimator(ds.Stats, refs, false)
			heur, err := algebra.JoinOrder(len(gp.Stars), gp.Joins)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := algebra.JoinOrderCost(len(gp.Stars), gp.Joins, est)
			if err != nil {
				t.Fatal(err)
			}
			if c, h := chainCard(est, cost), chainCard(est, heur); c > h {
				t.Errorf("%s on %s: cost-based order predicts %.0f intermediate rows, star-0-first %.0f", id, dsID, c, h)
			}
		}
	}
	if replans == 0 {
		t.Error("no mid-query re-plan fired on the skew stressors")
	}
}

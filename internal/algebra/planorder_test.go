package algebra

import (
	"testing"
)

func TestJoinOrderLinearChain(t *testing.T) {
	gp := mustGP(t, prefix+`SELECT ?a {
  ?a e:p ?b . ?b e:q ?c . ?c e:r ?d .
}`)
	order, err := JoinOrder(len(gp.Stars), gp.Joins)
	if err != nil {
		t.Fatalf("JoinOrder: %v", err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	// Every edge's Left endpoint must already be covered.
	covered := map[int]bool{0: true}
	for _, e := range order {
		if !covered[e.Left] {
			t.Errorf("edge %+v starts at uncovered star", e)
		}
		if covered[e.Right] {
			t.Errorf("edge %+v re-covers star %d", e, e.Right)
		}
		covered[e.Right] = true
	}
	if len(covered) != 3 {
		t.Errorf("covered = %v", covered)
	}
}

func TestJoinOrderFlipsEdges(t *testing.T) {
	// Star 0 is the object side: ?b e:q ?a makes the natural edge
	// (b -> a); JoinOrder must orient it away from star 0.
	gp := mustGP(t, prefix+`SELECT ?a {
  ?a e:p ?x .
  ?b e:q ?a ; e:r ?y .
}`)
	order, err := JoinOrder(len(gp.Stars), gp.Joins)
	if err != nil {
		t.Fatalf("JoinOrder: %v", err)
	}
	if len(order) != 1 || order[0].Left != 0 {
		t.Fatalf("order = %+v", order)
	}
	// The roles must have flipped with the orientation.
	if order[0].LeftRole != RoleSubject || order[0].RightRole != RoleObject {
		t.Errorf("roles = %v/%v", order[0].LeftRole, order[0].RightRole)
	}
}

func TestJoinOrderRejectsCycles(t *testing.T) {
	gp := mustGP(t, prefix+`SELECT ?a {
  ?a e:p ?b ; e:s ?c .
  ?b e:q ?c .
  ?c e:r ?x .
}`)
	if _, err := JoinOrder(len(gp.Stars), gp.Joins); err == nil {
		t.Fatal("cyclic join graph accepted")
	}
}

func TestJoinOrderDisconnected(t *testing.T) {
	gp := mustGP(t, prefix+`SELECT ?a { ?a e:p ?x . ?b e:q ?y . }`)
	if _, err := JoinOrder(len(gp.Stars), gp.Joins); err == nil {
		t.Fatal("disconnected join graph accepted")
	}
}

func TestJoinOrderSingleStar(t *testing.T) {
	order, err := JoinOrder(1, nil)
	if err != nil || order != nil {
		t.Fatalf("single star: %v, %v", order, err)
	}
}

// fakeEst drives JoinOrderCost/ReorderRemaining in tests: fixed per-star
// cardinalities, joins estimated as the plain cross product (so greedy
// choices follow the star sizes alone).
type fakeEst struct {
	stars []float64
}

func (f fakeEst) StarCard(i int) float64                { return f.stars[i] }
func (f fakeEst) JoinCard(l, r float64, _ Join) float64 { return l * r }

func TestJoinOrderCostPicksSelectiveEdgeFirst(t *testing.T) {
	// Star 0 is the big hub; star 2 is tiny. The heuristic starts with
	// (0,1); the cost order must join the tiny star first.
	gp := mustGP(t, prefix+`SELECT ?c {
  ?off e:product ?p ; e:vendor ?v .
  ?p e:label ?l .
  ?v e:country ?c .
}`)
	order, err := JoinOrderCost(len(gp.Stars), gp.Joins, fakeEst{stars: []float64{1000, 100, 2}})
	if err != nil {
		t.Fatalf("JoinOrderCost: %v", err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %+v", order)
	}
	first := map[int]bool{order[0].Left: true, order[0].Right: true}
	if !first[0] || !first[2] {
		t.Errorf("first edge joins stars %d-%d, want the 0-2 edge", order[0].Left, order[0].Right)
	}
	// The chain must stay valid: each later edge extends the covered set.
	covered := map[int]bool{order[0].Left: true, order[0].Right: true}
	for _, e := range order[1:] {
		if !covered[e.Left] || covered[e.Right] {
			t.Errorf("edge %+v breaks chain coverage", e)
		}
		covered[e.Right] = true
	}
}

func TestReorderRemainingPrefersSmallTail(t *testing.T) {
	// Branching pattern: star 1 connects to both 2 (huge) and 3 (tiny).
	gp := mustGP(t, prefix+`SELECT ?d {
  ?a e:p ?b .
  ?b e:q ?c ; e:r ?d .
  ?c e:s ?x .
  ?d e:t ?y .
}`)
	order, err := JoinOrder(len(gp.Stars), gp.Joins)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0].Right != 1 {
		t.Fatalf("heuristic order = %+v", order)
	}
	covered := []bool{true, true, false, false}
	remaining := append([]Join(nil), order[1:]...)
	est := fakeEst{stars: []float64{10, 10, 1000, 2}}
	got := ReorderRemaining(covered, remaining, 50, est)
	if len(got) != 2 || got[0].Right != 3 || got[1].Right != 2 {
		t.Errorf("reordered tail = %+v, want the tiny star 3 joined first", got)
	}
}

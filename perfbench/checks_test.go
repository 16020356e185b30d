package main

import (
	"math/rand"
	"testing"

	"mdrs/internal/costmodel"
	"mdrs/internal/engine"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

func testScheduler() sched.TreeScheduler {
	return sched.TreeScheduler{Model: costmodel.Default(), Overlap: resource.MustOverlap(paperEps), P: 16, F: paperF}
}

// scheduled builds and schedules one seeded paper plan.
func scheduled(t *testing.T, seed int64, joins int) (*query.PlanNode, *plan.OperatorTree, *plan.TaskTree, *sched.Schedule) {
	t.Helper()
	p, err := query.Random(rand.New(rand.NewSource(seed)), query.DefaultGenConfig(joins))
	if err != nil {
		t.Fatal(err)
	}
	ot := plan.MustExpand(p)
	tt := plan.MustNewTaskTree(ot)
	s, err := testScheduler().Schedule(tt)
	if err != nil {
		t.Fatal(err)
	}
	return p, ot, tt, s
}

func TestCheckPlacedRejectsProbeOffItsBuild(t *testing.T) {
	_, ot, tt, s := scheduled(t, 1, 6)
	if err := checkPlaced(s, tt); err != nil {
		t.Fatalf("untampered schedule: %v", err)
	}
	for _, op := range ot.Ops {
		if op.BuildOp == nil {
			continue
		}
		pl := s.Placement(op)
		// The probe may share its build's site slice; move it alone.
		pl.Sites = append([]int(nil), pl.Sites...)
		// A probe clone must meet its own build partition: swap two
		// clones' sites (a degree-1 probe moves to another site).
		if len(pl.Sites) > 1 {
			pl.Sites[0], pl.Sites[1] = pl.Sites[1], pl.Sites[0]
		} else {
			pl.Sites[0] = (pl.Sites[0] + 1) % s.P
		}
		if checkPlaced(s, tt) == nil {
			t.Fatalf("%s moved off its build's sites, check passed", op.Name)
		}
		return
	}
	t.Fatal("plan has no probe")
}

func TestCheckPlacedRejectsUnplacedOperator(t *testing.T) {
	_, _, _, s := scheduled(t, 1, 6)
	_, _, other, _ := scheduled(t, 2, 6)
	if checkPlaced(s, other) == nil {
		t.Fatal("operators of another tree reported placed")
	}
}

func TestSameScheduleRejectsChangedClone(t *testing.T) {
	_, _, tt, s := scheduled(t, 3, 8)
	again, err := testScheduler().ScheduleBatch([]*plan.TaskTree{tt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSchedule(s, again); err != nil {
		t.Fatalf("a group of one must equal its TreeSchedule: %v", err)
	}
	pl := again.Phases[0].Placements[0]
	pl.Clones[0] = append(pl.Clones[0][:0:0], pl.Clones[0]...)
	pl.Clones[0][0] += 1e-9
	if sameSchedule(s, again) == nil {
		t.Fatal("changed clone vector, schedules reported equal")
	}
}

func TestAtLeastRejectsResponseBelowBound(t *testing.T) {
	if atLeast("x", 1, 1) != nil || atLeast("x", 2, 1) != nil {
		t.Error("a response at or above the bound was rejected")
	}
	if atLeast("x", 0.99, 1) == nil {
		t.Error("a response below the bound was accepted")
	}
}

func TestCheckJoinsRejectsChangedCounts(t *testing.T) {
	p, ot, _, s := scheduled(t, 4, 5)
	ds, err := engine.Generate(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := testScheduler()
	rep, err := engine.Engine{Model: ts.Model, Overlap: ts.Overlap}.Run(ds, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJoins(rep, ot); err != nil {
		t.Fatalf("untampered report: %v", err)
	}
	for id := range rep.JoinResults {
		rep.JoinResults[id]++
		if checkJoins(rep, ot) == nil {
			t.Fatalf("join %d count changed, check passed", id)
		}
		rep.JoinResults[id]--
		break
	}
	rep.ResultTuples--
	if checkJoins(rep, ot) == nil {
		t.Fatal("result count changed, check passed")
	}
}

func TestCheckLedgerRejectsChangedCount(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rels, err := optimizer.RandomRelations(r, 4, psMinRel, psMaxRel)
	if err != nil {
		t.Fatal(err)
	}
	ts := testScheduler()
	res, err := optimizer.Search{Model: ts.Model, Overlap: ts.Overlap, P: ts.P, F: ts.F, Workers: 1, Streaming: true}.Best(r, rels)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLedger(res); err != nil {
		t.Fatalf("untampered result: %v", err)
	}
	res.Pruned++
	if checkLedger(res) == nil {
		t.Fatal("pruned count changed, ledger check passed")
	}
}

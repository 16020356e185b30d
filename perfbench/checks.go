package main

import (
	"fmt"

	"mdrs/internal/engine"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/sched"
)

// The checkers below compare the program's outputs with a separate
// computation or with a property the method must have; none compares
// with a stored copy of an earlier output.

// checkPlaced verifies that every operator of tt is placed in s with a
// consistent degree on distinct sites of the system, and that every
// probe sits on exactly its build's sites (the build→probe home
// constraint of Section 5.5).
func checkPlaced(s *sched.Schedule, tt *plan.TaskTree) error {
	for _, tk := range tt.Tasks {
		for _, op := range tk.Ops {
			pl := s.Placement(op)
			if pl == nil {
				return fmt.Errorf("%s is not placed", op.Name)
			}
			if pl.Degree < 1 || pl.Degree != len(pl.Sites) || pl.Degree != len(pl.Clones) {
				return fmt.Errorf("%s: degree %d with %d sites and %d clones", op.Name, pl.Degree, len(pl.Sites), len(pl.Clones))
			}
			seen := make(map[int]bool, len(pl.Sites))
			for _, site := range pl.Sites {
				if site < 0 || site >= s.P || seen[site] {
					return fmt.Errorf("%s: site %d out of range or repeated (P=%d)", op.Name, site, s.P)
				}
				seen[site] = true
			}
			if op.BuildOp == nil {
				continue
			}
			bp := s.Placement(op.BuildOp)
			if bp == nil || !equalInts(pl.Sites, bp.Sites) {
				return fmt.Errorf("%s is not on the sites of %s", op.Name, op.BuildOp.Name)
			}
		}
	}
	return nil
}

// sameSchedule reports the first difference between two schedules of
// the same trees: phase responses, task sets, and every placement's
// degree, sites, clone vectors and isolated time must be identical.
func sameSchedule(got, want *sched.Schedule) error {
	if got.P != want.P || got.Response != want.Response || len(got.Phases) != len(want.Phases) {
		return fmt.Errorf("schedule differs: P %d/%d, response %v/%v, phases %d/%d",
			got.P, want.P, got.Response, want.Response, len(got.Phases), len(want.Phases))
	}
	for i, gp := range got.Phases {
		wp := want.Phases[i]
		if gp.Response != wp.Response || len(gp.Tasks) != len(wp.Tasks) || len(gp.Placements) != len(wp.Placements) {
			return fmt.Errorf("phase %d differs: response %v/%v", i, gp.Response, wp.Response)
		}
		for j, tk := range gp.Tasks {
			if tk != wp.Tasks[j] {
				return fmt.Errorf("phase %d: task %d differs", i, j)
			}
		}
		for j, g := range gp.Placements {
			w := wp.Placements[j]
			if g.Op != w.Op || g.Degree != w.Degree || g.Rooted != w.Rooted || g.TPar != w.TPar ||
				!equalInts(g.Sites, w.Sites) || len(g.Clones) != len(w.Clones) {
				return fmt.Errorf("phase %d: placement of %s differs", i, g.Op.Name)
			}
			for k, c := range g.Clones {
				if !equalFloats(c, w.Clones[k]) {
					return fmt.Errorf("phase %d: clone %d of %s differs", i, k, g.Op.Name)
				}
			}
		}
	}
	return nil
}

// atLeast checks response >= bound, allowing for the rounding of the
// two different summation orders (a relative 1e-9).
func atLeast(what string, response, bound float64) error {
	if response < bound*(1-1e-9) {
		return fmt.Errorf("%s: response %v below OPTBOUND %v", what, response, bound)
	}
	return nil
}

// cardinality recomputes a plan node's output size from its leaves
// with the simple key-join rule |L ⋈ R| = max(|L|, |R|).
func cardinality(n *query.PlanNode) int {
	if n.Relation != nil {
		return n.Relation.Tuples
	}
	return max(cardinality(n.Outer), cardinality(n.Inner))
}

// checkJoins verifies an execution report against cardinalities
// recomputed from the leaf sizes: every join's result and the query
// result.
func checkJoins(rep *engine.Report, ot *plan.OperatorTree) error {
	if len(rep.JoinResults) != ot.Joins {
		return fmt.Errorf("%d join results for %d joins", len(rep.JoinResults), ot.Joins)
	}
	for _, op := range ot.Ops {
		if op.JoinID < 0 {
			continue
		}
		got, ok := rep.JoinResults[op.JoinID]
		if want := cardinality(op.Source); !ok || got != want {
			return fmt.Errorf("join %d produced %d tuples, want %d", op.JoinID, got, want)
		}
	}
	if want := cardinality(ot.Root.Source); rep.ResultTuples != want {
		return fmt.Errorf("result has %d tuples, want %d", rep.ResultTuples, want)
	}
	return nil
}

// checkLedger verifies the search's accounting identity: every
// enumerated candidate was pruned, scheduled or served warm.
func checkLedger(res *optimizer.Result) error {
	if int64(res.Pruned+res.Scheduled+res.WarmHits) != res.Enumerated {
		return fmt.Errorf("ledger: pruned %d + scheduled %d + warm %d != enumerated %d",
			res.Pruned, res.Scheduled, res.WarmHits, res.Enumerated)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/engine"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
)

// execute: paper plans scheduled by TreeSchedule and run by the engine
// with Parallel on. Each round's plans and data are generated before
// the round, off the clock; half the datasets draw their join keys from
// a Zipf distribution.
const (
	exSites    = 16
	exMinJoins = 4
	exMaxJoins = 10
	exSkewS    = 1.2
	exPool     = 16 // distinct rounds of inputs; round k uses k mod exPool
)

type exInput struct {
	plan   *query.PlanNode
	ds     *engine.Dataset
	skewed bool
}

// exSystem is the execute set-up: the scheduler and engine, and the
// current round's plans with their data. Every round runs distinct
// inputs: with a few dozen plans in memory at once, a run covers
// hundreds of plans, so its medians do not rest on a handful of them.
type exSystem struct {
	seed   int64
	inputs []*exInput
	ts     sched.TreeScheduler
	eng    engine.Engine
	// setup holds the time each round's generation took.
	setup []float64
	// generated is the distinct round inputs holds, or -1.
	generated int
}

func newEXSystem(seed int64) *exSystem {
	ov := resource.MustOverlap(paperEps)
	return &exSystem{
		seed: seed,
		ts:   sched.TreeScheduler{Model: costmodel.Default(), Overlap: ov, P: exSites, F: paperF},
		eng:  engine.Engine{Model: costmodel.Default(), Overlap: ov, Parallel: true},

		generated: -1,
	}
}

// generate builds round k's inputs: one plan per join count and key
// distribution, with its data, in seeded order. Round k's inputs depend
// only on the seed and k.
func (sys *exSystem) generate(k int) error {
	if k == sys.generated {
		return nil
	}
	sys.inputs, sys.generated = nil, -1
	c := startClock()
	r := rand.New(rand.NewSource(sys.seed*1_000_003 + int64(k)))
	var inputs []*exInput
	for _, skewed := range []bool{false, true} {
		for j := exMinJoins; j <= exMaxJoins; j++ {
			p, err := query.PlanOver(r, stratified(r, j+1), query.RandomBushy)
			if err != nil {
				return err
			}
			opts := engine.GenOptions{Seed: r.Int63()}
			if skewed {
				opts.SkewS = exSkewS
			}
			ds, err := engine.GenerateOpts(p, opts)
			if err != nil {
				return err
			}
			inputs = append(inputs, &exInput{plan: p, ds: ds, skewed: skewed})
		}
	}
	r.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	sys.inputs, sys.generated = inputs, k
	_, took := c.stop()
	sys.setup = append(sys.setup, took.Seconds())
	return nil
}

type exSample struct {
	in       *exInput
	ot       *plan.OperatorTree
	tt       *plan.TaskTree
	response float64
	rep      *engine.Report
	err      error
	lat, cpu time.Duration
	// Traced runs only.
	tree, run     time.Duration
	allocs, bytes uint64
}

// query runs one plan: expand, schedule, execute. Traced runs time the
// scheduler and the engine and take the engine run's allocation deltas
// (traced phases have a single caller).
func (sys *exSystem) query(in *exInput, eng engine.Engine, traced bool, s *exSample) {
	*s = exSample{in: in}
	c := startClock()
	start := c.wall
	ot, err := plan.Expand(in.plan)
	if err != nil {
		s.err = err
		return
	}
	tt, err := plan.NewTaskTree(ot)
	if err != nil {
		s.err = err
		return
	}
	var t1 time.Time
	if traced {
		t1 = time.Now()
	}
	sc, err := sys.ts.Schedule(tt)
	if err != nil {
		s.err = err
		return
	}
	var t2 time.Time
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
		t2 = time.Now()
		s.tree = t2.Sub(t1)
	}
	rep, err := eng.Run(in.ds, sc)
	lat, cpu := c.stop()
	if traced {
		s.run = lat - t2.Sub(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocs, s.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	}
	s.ot, s.tt, s.response, s.rep, s.err, s.lat, s.cpu = ot, tt, sc.Response, rep, err, lat, cpu
}

// exStats accumulates one phase's figures over its rounds.
// quality is the schedule's response over its OPTBOUND.
type exStats struct {
	tally
	// Traced phases only.
	tree, run       []time.Duration
	allocs, allocMB []float64
}

// verify checks one round's executions: every join result and the
// query result equal the cardinalities recomputed from the leaf sizes,
// and OPTBOUND <= Report.Predicted == the schedule's response.
func (sys *exSystem) verify(rnd int, samples []exSample, traced bool, st *exStats, ck *checks) {
	for i := range samples {
		s := &samples[i]
		st.attempted++
		if s.err != nil {
			st.failed++
			continue
		}
		ck.add(checkJoins(s.rep, s.ot))
		bound, err := opt.Bound(s.tt, sys.ts.Model, sys.ts.Overlap, sys.ts.P, sys.ts.F)
		ck.add(err)
		if s.rep.Predicted != s.response {
			ck.add(fmt.Errorf("report predicts %v, schedule response %v", s.rep.Predicted, s.response))
		}
		ck.add(atLeast("execute", s.rep.Predicted, bound))

		st.add(rnd, s.lat, s.cpu, s.in.skewed)
		st.quality = append(st.quality, s.response/bound)
		if traced {
			st.tree = append(st.tree, s.tree)
			st.run = append(st.run, s.run)
			st.allocs = append(st.allocs, float64(s.allocs))
			st.allocMB = append(st.allocMB, float64(s.bytes)/(1<<20))
		}
	}
}

// phase runs rounds with the given number of callers, generating each
// distinct round's inputs before it; split puts a distinct round's
// uniform inputs and its skewed ones in rounds of their own. A traced
// phase (one caller) attaches rec to the engine.
func (sys *exSystem) phase(callers int, budget time.Duration, minRounds int, split bool, rec obs.Recorder, ck *checks) (*exStats, error) {
	st := &exStats{}
	eng := sys.eng
	eng.Rec = rec
	traced := rec != nil
	var samples []exSample
	var ops []*exInput
	ran, err := closedLoop(callers, phase{
		distinct:  exPool,
		split:     split,
		budget:    budget,
		minRounds: minRounds,
		before: func(p pick) (int, error) {
			if err := sys.generate(p.k); err != nil {
				return 0, err
			}
			ops = nil
			for _, in := range sys.inputs {
				if p.has(in.skewed) {
					ops = append(ops, in)
				}
			}
			samples = make([]exSample, len(ops))
			return len(ops), nil
		},
		after: func(round int) error {
			sys.verify(round, samples, traced, st, ck)
			samples = nil
			return nil
		},
	}, func(round, i int) {
		sys.query(ops[i], eng, traced, &samples[i])
	})
	st.timed(ran)
	return st, err
}

func runExecute(cfg config) (*outcome, error) {
	out := &outcome{}
	sys := newEXSystem(cfg.seed)

	// Warm-up: one round, checked, not counted.
	if _, err := sys.phase(1, 0, 1, false, nil, &out.checks); err != nil {
		return nil, err
	}

	if !cfg.trace {
		thr, err := sys.phase(runtime.GOMAXPROCS(0), cfg.share(1), 0, true, nil, &out.checks)
		if err != nil {
			return nil, err
		}
		out.set("setup_s", median(sys.setup))
		err = out.setEndToEnd(&thr.tally)
		runtime.KeepAlive(sys) // the live heap counts the last round's data
		return out, err
	}

	plain, err := sys.phase(1, cfg.share(0.5), 0, false, nil, &out.checks)
	if err != nil {
		return nil, err
	}
	met := obs.NewMetrics()
	lat, err := sys.phase(1, cfg.share(0.5), 0, false, met, &out.checks)
	if err != nil {
		return nil, err
	}
	out.count(&plain.tally, &lat.tally)

	snap := met.Snapshot().Counters
	var runTime time.Duration
	for _, d := range lat.run {
		runTime += d
	}
	touched := snap["engine.tuples_scanned"] + snap["engine.tuples_built"] + snap["engine.tuples_probed"] + snap["engine.tuples_stored"]
	out.set("sched.tree_ms", medianDur(lat.tree, time.Millisecond))
	out.set("engine.run_ms", medianDur(lat.run, time.Millisecond))
	out.set("engine.tuples_per_s", ratio(float64(touched), runTime.Seconds()))
	out.set("engine.allocs_per_run", mean(lat.allocs))
	out.set("engine.alloc_mb_per_run", mean(lat.allocMB))
	reuses, allocs := float64(snap["engine.arena_reuses"]), float64(snap["engine.arena_allocs"])
	out.set("engine.arena_reuse_frac", ratio(reuses, reuses+allocs))
	out.setTraceOverhead(&plain.tally, &lat.tally)
	return out, nil
}

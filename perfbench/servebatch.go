package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/serve"
)

// serve-batch: the scheduling service as mdrs-serve ships it. Each
// request is a plan JSON body taken through query.Decode,
// plan.Expand/NewTaskTree, Service.Schedule and sched.EncodeJSON of the
// result's schedule, exactly as the HTTP handler builds its reply.
// The measured closed loop sends from one caller per CPU, and the
// service batches what arrives together; a traced run sends one request
// at a time, so that each one's layers run alone.
const (
	sbSites    = 100
	sbMinJoins = 10
	sbMaxJoins = 50
	sbHiJoins  = 30 // plans of at least this many joins form the "hi" class
	sbCopies   = 4  // distinct plans per join count; round k sends copy k mod sbCopies
)

type sbPlan struct {
	id    int // index among the distinct plans
	body  []byte
	joins int
}

// sbSystem is one serve-batch set-up: the request bodies and a service
// configured with mdrs-serve's defaults (cache off, 2 ms batching
// window, MaxBatch 8, MaxInFlight and Workers at GOMAXPROCS, a metrics
// recorder attached).
type sbSystem struct {
	rounds [][]sbPlan // [copy] one plan per join count, in seeded order
	ts     sched.TreeScheduler
	svc    *serve.Service
	// alone holds each distinct plan's response scheduled alone by ts,
	// over its OPTBOUND.
	alone map[int]float64
}

func newSBSystem(seed int64) (*sbSystem, error) {
	r := rand.New(rand.NewSource(seed))
	sys := &sbSystem{rounds: make([][]sbPlan, sbCopies), alone: make(map[int]float64)}
	for c := range sys.rounds {
		row := make([]sbPlan, 0, sbMaxJoins-sbMinJoins+1)
		for j := sbMinJoins; j <= sbMaxJoins; j++ {
			p, err := query.PlanOver(r, stratified(r, j+1), query.RandomBushy)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(p)
			if err != nil {
				return nil, err
			}
			row = append(row, sbPlan{id: c*(sbMaxJoins-sbMinJoins+1) + len(row), body: body, joins: j})
		}
		r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		sys.rounds[c] = row
	}
	met := obs.NewMetrics()
	ts := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(paperEps),
		P:       sbSites,
		F:       paperF,
		Rec:     met,
	}
	svc, err := serve.New(serve.Config{
		Scheduler:   ts,
		MaxBatch:    8,
		BatchWindow: 2 * time.Millisecond,
		Rec:         met,
	})
	if err != nil {
		return nil, err
	}
	ts.Rec = nil // replays run without the service's recorder
	sys.ts, sys.svc = ts, svc
	return sys, nil
}

func (sys *sbSystem) close() {
	if sys != nil {
		sys.svc.Close()
	}
}

// sbSample is one request's outcome.
type sbSample struct {
	plan  int
	joins int
	tree  *plan.TaskTree
	res   *serve.Result
	err   error
	lat   time.Duration
	cpu   time.Duration
	// Traced runs only: time in each layer.
	decode, prepare, schedule, encode time.Duration
}

// request handles one plan body as the HTTP handler would, timing it.
func (sys *sbSystem) request(p sbPlan, traced bool, s *sbSample) {
	*s = sbSample{plan: p.id, joins: p.joins}
	c := startClock()
	t0 := c.wall
	q, err := query.Decode(p.body)
	if err != nil {
		s.err = err
		return
	}
	var t1 time.Time
	if traced {
		t1 = time.Now()
		s.decode = t1.Sub(t0)
	}
	ot, err := plan.Expand(q)
	if err != nil {
		s.err = err
		return
	}
	tt, err := plan.NewTaskTree(ot)
	if err != nil {
		s.err = err
		return
	}
	var t2 time.Time
	if traced {
		t2 = time.Now()
		s.prepare = t2.Sub(t1)
	}
	res, err := sys.svc.Schedule(context.Background(), tt)
	if err != nil {
		s.err = err
		return
	}
	var t3 time.Time
	if traced {
		t3 = time.Now()
		s.schedule = t3.Sub(t2)
	}
	_, err = sched.EncodeJSON(res.Schedule)
	lat, cpu := c.stop()
	if traced {
		s.encode = lat - t3.Sub(t0)
	}
	s.tree, s.res, s.err, s.lat, s.cpu = tt, res, err, lat, cpu
}

// sbStats accumulates one phase's figures over its rounds.
// quality is each request's plan scheduled alone, over its OPTBOUND:
// the service's own responses depend on which requests share a batch,
// which timing decides.
type sbStats struct {
	tally
	// Traced phases only.
	decode, prepare, schedule, batch, encode []time.Duration
	overheadUS, groupSize                    []float64
}

// verify checks one round's requests and adds their figures to st:
// every operator is placed with probes on their builds' sites, the
// response is at least every group member's OPTBOUND, and the schedule
// equals a direct ScheduleBatch of Result.Group.
func (sys *sbSystem) verify(rnd int, samples []sbSample, traced bool, st *sbStats, ck *checks) {
	bounds := make(map[*plan.TaskTree]float64, len(samples))
	bound := func(tt *plan.TaskTree) float64 {
		b, ok := bounds[tt]
		if !ok {
			var err error
			b, err = opt.Bound(tt, sys.ts.Model, sys.ts.Overlap, sys.ts.P, sys.ts.F)
			ck.add(err)
			bounds[tt] = b
		}
		return b
	}
	replays := make(map[*sched.Schedule]time.Duration)
	for i := range samples {
		s := &samples[i]
		st.attempted++
		if s.err != nil {
			st.failed++
			continue
		}
		res := s.res
		if res.Index < 0 || res.Index >= len(res.Group) || res.Group[res.Index] != s.tree {
			ck.add(fmt.Errorf("request's tree is not Group[%d]", res.Index))
			continue
		}
		ck.add(checkPlaced(res.Schedule, s.tree))
		maxBound := 0.0
		for _, m := range res.Group {
			maxBound = max(maxBound, bound(m))
		}
		ck.add(atLeast("batched request", res.Schedule.Response, maxBound))
		took, ok := replays[res.Schedule]
		if !ok {
			start := time.Now()
			direct, err := sys.ts.ScheduleBatch(res.Group)
			took = time.Since(start)
			replays[res.Schedule] = took
			if err != nil {
				ck.add(err)
			} else {
				ck.add(sameSchedule(res.Schedule, direct))
			}
		}

		st.add(rnd, s.lat, s.cpu, s.joins >= sbHiJoins)
		q, ok := sys.alone[s.plan]
		if !ok {
			alone, err := sys.ts.Schedule(s.tree)
			ck.add(err)
			if err == nil {
				q = alone.Response / bound(s.tree)
				sys.alone[s.plan] = q
			}
		}
		st.quality = append(st.quality, q)
		if traced {
			st.decode = append(st.decode, s.decode)
			st.prepare = append(st.prepare, s.prepare)
			st.schedule = append(st.schedule, s.schedule)
			st.encode = append(st.encode, s.encode)
			st.batch = append(st.batch, took)
			st.overheadUS = append(st.overheadUS, float64(s.schedule-took)/float64(time.Microsecond))
			st.groupSize = append(st.groupSize, float64(len(res.Group)))
		}
	}
}

// phase runs rounds with the given number of callers; split puts a
// distinct round's plans below sbHiJoins joins and the rest in rounds of
// their own.
func (sys *sbSystem) phase(callers int, budget time.Duration, minRounds int, split, traced bool, ck *checks) (*sbStats, error) {
	st := &sbStats{}
	var samples []sbSample
	var ops []sbPlan
	ran, err := closedLoop(callers, phase{
		distinct:  sbCopies,
		split:     split,
		budget:    budget,
		minRounds: minRounds,
		before: func(p pick) (int, error) {
			ops = nil
			for _, pl := range sys.rounds[p.k] {
				if p.has(pl.joins >= sbHiJoins) {
					ops = append(ops, pl)
				}
			}
			samples = make([]sbSample, len(ops))
			return len(ops), nil
		},
		after: func(round int) error {
			sys.verify(round, samples, traced, st, ck)
			samples = nil
			return nil
		},
	}, func(round, i int) {
		sys.request(ops[i], traced, &samples[i])
	})
	st.timed(ran)
	return st, err
}

func runServeBatch(cfg config) (*outcome, error) {
	out := &outcome{}
	// Set-up builds the request bodies and the service, then warms the
	// service with two closed-loop rounds (checked, not counted).
	sys, setup, err := timedSetup(setupReps, func() (*sbSystem, time.Duration, error) {
		c := startClock()
		sys, err := newSBSystem(cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		_, built := c.stop()
		warm, err := sys.phase(runtime.GOMAXPROCS(0), 0, 2, false, false, &out.checks)
		if err != nil {
			sys.close()
			return nil, 0, err
		}
		return sys, built + warm.spent(), nil
	}, (*sbSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	out.set("setup_s", setup)

	if !cfg.trace {
		thr, err := sys.phase(runtime.GOMAXPROCS(0), cfg.share(1), 0, true, false, &out.checks)
		if err != nil {
			return nil, err
		}
		return out, out.setEndToEnd(&thr.tally)
	}

	plain, err := sys.phase(1, cfg.share(0.5), 0, false, false, &out.checks)
	if err != nil {
		return nil, err
	}
	lat, err := sys.phase(1, cfg.share(0.5), 0, false, true, &out.checks)
	if err != nil {
		return nil, err
	}
	out.count(&plain.tally, &lat.tally)
	out.set("query.decode_us", medianDur(lat.decode, time.Microsecond))
	out.set("plan.prepare_us", medianDur(lat.prepare, time.Microsecond))
	out.set("serve.schedule_ms", medianDur(lat.schedule, time.Millisecond))
	out.set("sched.batch_ms", medianDur(lat.batch, time.Millisecond))
	out.set("serve.overhead_us", median(lat.overheadUS))
	out.set("serve.group_size", mean(lat.groupSize))
	out.set("sched.encode_ms", medianDur(lat.encode, time.Millisecond))
	out.setTraceOverhead(&plain.tally, &lat.tally)
	return out, nil
}

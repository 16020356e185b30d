package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mdrs/internal/costmodel"
	"mdrs/internal/obs"
	"mdrs/internal/opt"
	"mdrs/internal/optimizer"
	"mdrs/internal/plan"
	"mdrs/internal/query"
	"mdrs/internal/resource"
	"mdrs/internal/sched"
	"mdrs/internal/serve"
)

// plan-search: Service.Optimize over seeded relation catalogs with the
// schedule cache on. 4-relation catalogs take the systematic path
// (streamed enumeration with subtree pruning); 5–8 relations take the
// sampled path. Each round has 16 distinct catalogs and repeats 4 of
// them later in the round on a fresh service, so the share of repeated
// catalogs, which the cache answers warm, is the same in every round.
const (
	psSites = 256
	psPool  = 32   // distinct rounds of catalogs; round k uses k mod psPool
	psCache = 1024 // schedule cache size
	// Catalog relations span the paper's 10³–10⁵ tuples.
	psMinRel = 1000
	psMaxRel = 100000
)

// psMix lists the relation counts of one round's distinct catalogs;
// psRepeats the positions in psMix repeated later in the round (one
// systematic catalog, three sampled ones).
var (
	psMix     = []int{4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8}
	psRepeats = []int{0, 4, 8, 12}
)

type psCatalog struct {
	id   int // index of the distinct catalog within the pool
	rels []*query.Relation
	seed int64 // the sampling seed of every search over this catalog
}

// psSystem is one plan-search set-up: the rounds of catalogs and the
// service configuration (a fresh service per round, so every round
// starts with a cold cache).
type psSystem struct {
	rounds [][]*psCatalog
	ts     sched.TreeScheduler
	svc    *serve.Service
	check  *psChecker
}

// psChecker prices plans independently of the service, with its own
// scheduler, and memoizes each systematic catalog's minimum response
// over all its plans. It outlives the repeated set-ups, so each
// catalog's 120 plans are priced once per run. It is safe for
// concurrent use.
type psChecker struct {
	ts     sched.TreeScheduler
	mu     sync.Mutex
	oracle map[int]float64
}

func newPSChecker(ts sched.TreeScheduler) *psChecker {
	ts.Workers = 1
	return &psChecker{ts: ts, oracle: make(map[int]float64)}
}

func newPSSystem(seed int64, ts sched.TreeScheduler, check *psChecker) (*psSystem, error) {
	r := rand.New(rand.NewSource(seed))
	sys := &psSystem{rounds: make([][]*psCatalog, psPool), ts: ts, check: check}
	id := 0
	for k := range sys.rounds {
		distinct := make([]*psCatalog, len(psMix))
		for i, n := range psMix {
			rels, err := optimizer.RandomRelations(r, n, psMinRel, psMaxRel)
			if err != nil {
				return nil, err
			}
			distinct[i] = &psCatalog{id: id, rels: rels, seed: r.Int63()}
			id++
		}
		order := make([]*psCatalog, 0, len(psMix)+len(psRepeats))
		for _, i := range r.Perm(len(distinct)) {
			order = append(order, distinct[i])
		}
		// Each repeat goes to a seeded position after its original.
		for _, i := range psRepeats {
			at := 0
			for order[at] != distinct[i] {
				at++
			}
			pos := at + 1 + r.Intn(len(order)-at)
			order = append(order[:pos], append([]*psCatalog{distinct[i]}, order[pos:]...)...)
		}
		sys.rounds[k] = order
	}
	if err := sys.fresh(); err != nil {
		return nil, err
	}
	return sys, nil
}

// fresh replaces the service with a new one: cache on, as mdrs-serve
// configures it with -cache (a cost-model memo attached), and the
// streaming optimizer at its defaults.
func (sys *psSystem) fresh() error {
	sys.close()
	met := obs.NewMetrics()
	ts := sys.ts
	ts.Rec = met
	ts.Cache = costmodel.NewCache(ts.Model)
	svc, err := serve.New(serve.Config{
		Scheduler:   ts,
		MaxBatch:    8,
		BatchWindow: 2 * time.Millisecond,
		CacheSize:   psCache,
		Optimizer:   &serve.OptimizerConfig{},
		Rec:         met,
	})
	sys.svc = svc
	return err
}

func (sys *psSystem) close() {
	if sys != nil && sys.svc != nil {
		sys.svc.Close()
		sys.svc = nil
	}
}

type psSample struct {
	cat      *psCatalog
	res      *optimizer.Result
	err      error
	lat, cpu time.Duration
}

func (sys *psSystem) search(cat *psCatalog, s *psSample) {
	c := startClock()
	res, err := sys.svc.Optimize(context.Background(), rand.New(rand.NewSource(cat.seed)), cat.rels)
	lat, cpu := c.stop()
	*s = psSample{cat: cat, res: res, err: err, lat: lat, cpu: cpu}
}

// price schedules a plan with the checker's own scheduler and bounds it
// with OPTBOUND.
func (c *psChecker) price(p *query.PlanNode) (resp, bound float64, err error) {
	tt, err := plan.NewTaskTree(plan.MustExpand(p))
	if err != nil {
		return 0, 0, err
	}
	s, err := c.ts.Schedule(tt)
	if err != nil {
		return 0, 0, err
	}
	bound, err = opt.Bound(tt, c.ts.Model, c.ts.Overlap, c.ts.P, c.ts.F)
	if err != nil {
		return 0, 0, err
	}
	return s.Response, bound, nil
}

// best returns the minimum response over every plan of a systematic
// catalog, each scheduled by the checker with no pruning.
func (c *psChecker) best(cat *psCatalog) (float64, error) {
	c.mu.Lock()
	v, ok := c.oracle[cat.id]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	lowest := math.Inf(1)
	err := query.EnumerateBushyFunc(cat.rels, nil, func(p *query.PlanNode, _ int64) error {
		tt, err := plan.NewTaskTree(plan.MustExpand(p))
		if err != nil {
			return err
		}
		s, err := c.ts.Schedule(tt)
		if err != nil {
			return err
		}
		lowest = math.Min(lowest, s.Response)
		return nil
	})
	c.mu.Lock()
	c.oracle[cat.id] = lowest
	c.mu.Unlock()
	return lowest, err
}

// search checks one search's result: the ledger identity; on
// systematic catalogs, that the winner is the minimum over every plan;
// on sampled ones, that it is the minimum over the priced candidates,
// each re-scheduled by the checker; and that no priced candidate beats
// its OPTBOUND. It returns the failures and the winner's OPTBOUND.
func (c *psChecker) search(s *psSample) (winnerBound float64, ck checks) {
	res := s.res
	systematic := len(s.cat.rels) == 4
	ck.add(checkLedger(res))
	if res.Systematic != systematic || res.Best.Schedule == nil ||
		len(res.Candidates) == 0 || res.Candidates[0].Index != 0 || res.Candidates[0].Schedule == nil {
		ck.add(fmt.Errorf("catalog %d: systematic %v, want %v; winner or candidate 0 not priced",
			s.cat.id, res.Systematic, systematic))
		return 0, ck
	}
	got := res.Best.Schedule.Response
	want, winnerBound, err := c.price(res.Best.Plan)
	ck.add(err)
	if got != want {
		ck.add(fmt.Errorf("catalog %d: winner response %v, re-scheduled %v", s.cat.id, got, want))
	}
	for _, cand := range res.Candidates {
		if cand.Schedule == nil {
			continue
		}
		resp, bound, err := c.price(cand.Plan)
		ck.add(err)
		if resp != cand.Schedule.Response {
			ck.add(fmt.Errorf("catalog %d: candidate %d response %v, re-scheduled %v", s.cat.id, cand.Index, cand.Schedule.Response, resp))
		}
		ck.add(atLeast(fmt.Sprintf("catalog %d candidate %d", s.cat.id, cand.Index), cand.Schedule.Response, bound))
		want = math.Min(want, resp)
	}
	if systematic {
		if res.Enumerated != query.CountBushy(4) {
			ck.add(fmt.Errorf("catalog %d: enumerated %d plans, want %d", s.cat.id, res.Enumerated, query.CountBushy(4)))
		}
		oracle, err := c.best(s.cat)
		ck.add(err)
		want = oracle
	}
	if got != want {
		ck.add(fmt.Errorf("catalog %d: winner response %v, minimum %v", s.cat.id, got, want))
	}
	return winnerBound, ck
}

// psStats accumulates one phase's figures over its rounds.
// quality is the winner's response over its OPTBOUND.
type psStats struct {
	tally
	// Traced phases only.
	search, enumerate, bound, tree                         []time.Duration
	enumerated, scheduled, pruned, subtreePruned, warmHits []float64
}

// verify checks one round's searches with psChecker.search, on one
// goroutine per CPU, and adds their figures to st. Traced phases also
// replay each search's layers outside the service, one at a time.
func (sys *psSystem) verify(rnd int, samples []psSample, traced bool, st *psStats, ck *checks) {
	bounds := make([]float64, len(samples))
	found := make([]checks, len(samples))
	forEach(len(samples), func(i int) {
		if samples[i].err == nil {
			bounds[i], found[i] = sys.check.search(&samples[i])
		}
	})
	cache := costmodel.NewCache(sys.ts.Model)
	for i := range samples {
		s := &samples[i]
		st.attempted++
		if s.err != nil {
			st.failed++
			continue
		}
		ck.merge(found[i])
		if found[i].n > 0 {
			continue
		}
		st.add(rnd, s.lat, s.cpu, len(s.cat.rels) != 4)
		st.quality = append(st.quality, s.res.Best.Schedule.Response/bounds[i])
		if traced {
			sys.replay(s, cache, st, ck)
		}
	}
}

// replay times the layers of one search outside the service: a direct
// streaming Search with the service's parameters (without the cache's
// warm start), the unpruned enumeration of a systematic catalog,
// OPTBOUND of the winner, and its TreeSchedule with the search's
// Workers. It also takes the search's own counts.
func (sys *psSystem) replay(s *psSample, cache *costmodel.Cache, st *psStats, ck *checks) {
	res := s.res
	st.enumerated = append(st.enumerated, float64(res.Enumerated))
	st.scheduled = append(st.scheduled, float64(res.Scheduled))
	st.pruned = append(st.pruned, float64(res.Pruned))
	st.subtreePruned = append(st.subtreePruned, float64(res.SubtreePruned))
	st.warmHits = append(st.warmHits, float64(res.WarmHits))

	search := optimizer.Search{
		Model:     sys.ts.Model,
		Overlap:   sys.ts.Overlap,
		P:         sys.ts.P,
		F:         sys.ts.F,
		Cache:     cache,
		Workers:   sys.ts.Workers,
		Streaming: true,
	}
	start := time.Now()
	direct, err := search.Best(rand.New(rand.NewSource(s.cat.seed)), s.cat.rels)
	st.search = append(st.search, time.Since(start))
	if err != nil {
		ck.add(err)
	} else if direct.Best.Schedule == nil || direct.Best.Schedule.Response != res.Best.Schedule.Response {
		ck.add(fmt.Errorf("catalog %d: direct search's winner differs from the service's", s.cat.id))
	}

	if len(s.cat.rels) == 4 {
		start = time.Now()
		ck.add(query.EnumerateBushyFunc(s.cat.rels, nil, func(*query.PlanNode, int64) error { return nil }))
		st.enumerate = append(st.enumerate, time.Since(start))
	}

	tt, err := plan.NewTaskTree(plan.MustExpand(res.Best.Plan))
	if err != nil {
		ck.add(err)
		return
	}
	start = time.Now()
	_, err = opt.Bound(tt, sys.ts.Model, sys.ts.Overlap, sys.ts.P, sys.ts.F)
	st.bound = append(st.bound, time.Since(start))
	ck.add(err)
	start = time.Now()
	_, err = sys.ts.Schedule(tt)
	st.tree = append(st.tree, time.Since(start))
	ck.add(err)
}

// phase runs rounds of searches with the given number of callers, a
// fresh service per round; split puts a distinct round's systematic
// catalogs and its sampled ones in rounds of their own.
func (sys *psSystem) phase(callers int, budget time.Duration, minRounds int, split, traced bool, ck *checks) (*psStats, error) {
	st := &psStats{}
	var samples []psSample
	var ops []*psCatalog
	ran, err := closedLoop(callers, phase{
		distinct:  psPool,
		split:     split,
		budget:    budget,
		minRounds: minRounds,
		before: func(p pick) (int, error) {
			ops = nil
			for _, c := range sys.rounds[p.k] {
				if p.has(len(c.rels) != 4) {
					ops = append(ops, c)
				}
			}
			samples = make([]psSample, len(ops))
			return len(ops), sys.fresh()
		},
		after: func(round int) error {
			sys.verify(round, samples, traced, st, ck)
			samples = nil
			return nil
		},
	}, func(round, i int) {
		sys.search(ops[i], &samples[i])
	})
	st.timed(ran)
	return st, err
}

func runPlanSearch(cfg config) (*outcome, error) {
	out := &outcome{}
	ts := sched.TreeScheduler{
		Model:   costmodel.Default(),
		Overlap: resource.MustOverlap(paperEps),
		P:       psSites,
		F:       paperF,
	}
	check := newPSChecker(ts)
	// Set-up builds the catalogs and a service, then runs one round on
	// it (checked, not counted).
	sys, setup, err := timedSetup(setupReps, func() (*psSystem, time.Duration, error) {
		c := startClock()
		sys, err := newPSSystem(cfg.seed, ts, check)
		if err != nil {
			return nil, 0, err
		}
		_, built := c.stop()
		warm, err := sys.phase(1, 0, 1, false, false, &out.checks)
		if err != nil {
			sys.close()
			return nil, 0, err
		}
		return sys, built + warm.spent(), nil
	}, (*psSystem).close)
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
	enumerated, scheduled := mean(lat.enumerated), mean(lat.scheduled)
	out.set("optimizer.search_ms", medianDur(lat.search, time.Millisecond))
	out.set("optimizer.enumerated", enumerated)
	out.set("optimizer.scheduled", scheduled)
	out.set("optimizer.pruned", mean(lat.pruned))
	out.set("optimizer.subtree_pruned", mean(lat.subtreePruned))
	out.set("optimizer.warm_hits", mean(lat.warmHits))
	out.set("optimizer.scheduled_frac", ratio(scheduled, enumerated))
	out.set("query.enumerate_ms", medianDur(lat.enumerate, time.Millisecond))
	out.set("opt.bound_us", medianDur(lat.bound, time.Microsecond))
	out.set("sched.tree_ms", medianDur(lat.tree, time.Millisecond))
	out.setTraceOverhead(&plain.tally, &lat.tally)
	return out, nil
}

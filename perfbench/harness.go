package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdrs/internal/query"
)

// phase describes one phase: rounds of operations over distinct rounds
// of inputs, repeated until at least budget of measured wall time has
// passed and at least minRounds rounds ran. A measured phase (budget >
// 0) runs whole passes over the distinct rounds, so that every input
// runs equally often; with split, each distinct round runs as two
// rounds, its "lo" operations and its "hi" ones. Between rounds the
// clock stops: the workload prepares the next round (before, which
// returns its number of operations) and checks the round's outputs
// (after), so neither set-up nor checking is timed. after must drop its
// references to the round's outputs: the live heap is taken once it
// returns.
type phase struct {
	distinct  int
	split     bool
	budget    time.Duration
	minRounds int
	before    func(p pick) (ops int, err error)
	after     func(round int) error
}

// pick says which operations a round runs: those of distinct round k,
// all of them or only one class.
type pick struct {
	k       int
	all, hi bool
}

// has reports whether the round runs an operation of the given class.
func (p pick) has(hi bool) bool { return p.all || p.hi == hi }

// pick returns what round r of the phase runs, and the number of rounds
// in one whole pass over the distinct rounds.
func (ph phase) pick(r int) (pick, int) {
	if ph.split {
		return pick{k: r / 2 % ph.distinct, hi: r%2 == 1}, 2 * ph.distinct
	}
	return pick{k: r % ph.distinct, all: true}, ph.distinct
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. Every figure the benchmark bounds is
// taken in it rather than in wall time: the host's hypervisor takes the
// benchmark's virtual CPUs away for stretches of a minute and more (CPU
// steal of 2% in one run and 25% in the next), and time taken away
// passes on the wall clock but not on this one.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock times one operation, in wall time and in the process's CPU
// time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{time.Now(), cpuTime()} }

// stop returns the wall time and the CPU time since the clock started.
func (c clock) stop() (lat, cpu time.Duration) {
	cpu = cpuTime() - c.cpu
	return time.Since(c.wall), cpu
}

// tally is what every workload's phase records, whatever its operation.
type tally struct {
	attempted, failed int
	rounds            []round
	quality           []float64 // schedule response / OPTBOUND
	heapMB            []float64 // live heap after each round of the first pass
}

// round is one measured round: for each operation that passed its
// checks, its wall latency, its CPU time (meaningful with one caller,
// when operations do not overlap) and its input class ("hi" or "lo");
// and the round's wall time and the CPU time the process spent in it.
type round struct {
	lat, cpu    []time.Duration
	hi          []bool
	wall, spent time.Duration
}

// add records one operation of the given round.
func (t *tally) add(rnd int, lat, cpu time.Duration, hi bool) {
	for len(t.rounds) <= rnd {
		t.rounds = append(t.rounds, round{})
	}
	r := &t.rounds[rnd]
	r.lat = append(r.lat, lat)
	r.cpu = append(r.cpu, cpu)
	r.hi = append(r.hi, hi)
}

// spent is the CPU time the process spent in the phase's rounds.
func (t *tally) spent() time.Duration {
	var c time.Duration
	for _, r := range t.rounds {
		c += r.spent
	}
	return c
}

// timed takes what the phase's driver measured: each round's wall and
// CPU time and the live heap after it.
func (t *tally) timed(r ran) {
	for len(t.rounds) < len(r.rounds) {
		t.rounds = append(t.rounds, round{})
	}
	for i, m := range r.rounds {
		t.rounds[i].wall, t.rounds[i].spent = m.wall, m.spent
	}
	t.heapMB = r.heapMB
}

// setEndToEnd reports an untraced run's end-to-end metrics from its
// closed-loop phase, whose rounds each hold one class of operation
// (setup_s is the workload's own). The timings are the CPU time the
// process spent per operation, over every class and over each; the
// wall-clock figures go to the notes.
func (o *outcome) setEndToEnd(thr *tally) error {
	o.count(thr)
	var n, nHi int
	var spent, spentHi, wall time.Duration
	var lats []time.Duration
	for _, r := range thr.rounds {
		if len(r.lat) == 0 {
			continue
		}
		n += len(r.lat)
		spent += r.spent
		wall += r.wall
		lats = append(lats, r.lat...)
		if r.hi[0] {
			nHi += len(r.lat)
			spentHi += r.spent
		}
	}
	if nHi == 0 || nHi == n {
		return fmt.Errorf("closed loop ran %d operations, %d of class hi: a class is missing", n, nHi)
	}
	o.set("cpu_ms", ms(spent)/float64(n))
	o.set("lo.cpu_ms", ms(spent-spentHi)/float64(n-nHi))
	o.set("hi.cpu_ms", ms(spentHi)/float64(nHi))
	o.set("resp_over_optbound", mean(thr.quality))
	o.set("live_heap_mb", median(thr.heapMB))
	o.notes = append(o.notes, fmt.Sprintf("wall clock: %d operations, %.1f per second, latency p50 %.3f ms",
		n, float64(n)/wall.Seconds(), medianDur(lats, time.Millisecond)))
	return nil
}

// count adds the phases' operations to the run's.
func (o *outcome) count(phases ...*tally) {
	for _, t := range phases {
		o.attempted += t.attempted
		o.failed += t.failed
	}
}

// setTraceOverhead reports the traced phase's median CPU time per
// operation minus the untraced one's, from the same run; both phases
// have a single caller.
func (o *outcome) setTraceOverhead(plain, traced *tally) {
	var p, t []time.Duration
	for _, r := range plain.rounds {
		p = append(p, r.cpu...)
	}
	for _, r := range traced.rounds {
		t = append(t, r.cpu...)
	}
	o.set("trace.overhead_ms", medianDur(t, time.Millisecond)-medianDur(p, time.Millisecond))
}

// ran is what a phase measured besides the operations themselves.
type ran struct {
	wall   time.Duration // measured wall time, pauses excluded
	rounds []struct{ wall, spent time.Duration }
	// heapMB is the live heap after each round of the first pass, once
	// its outputs are checked and dropped, following a forced collection.
	heapMB []float64
}

// closedLoop runs the phase with callers goroutines, each taking the
// round's next operation index as soon as its previous operation
// returned.
func closedLoop(callers int, ph phase, op func(round, i int)) (ran, error) {
	var out ran
	for round := 0; ; round++ {
		p, pass := ph.pick(round)
		if round >= ph.minRounds && (ph.budget == 0 || out.wall >= ph.budget && round%pass == 0) {
			break
		}
		size, err := ph.before(p)
		if err != nil {
			return out, err
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		c := startClock()
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= size {
						return
					}
					op(round, i)
				}
			}()
		}
		wg.Wait()
		wall, spent := c.stop()
		out.wall += wall
		out.rounds = append(out.rounds, struct{ wall, spent time.Duration }{wall, spent})
		if err := ph.after(round); err != nil {
			return out, err
		}
		// Every round starts from a collected heap; only the first pass's
		// readings are kept, so that how many passes fit in the budget,
		// and how much the benchmark's own records have grown, does not
		// move the figure.
		if heap := liveHeapMB(); round < pass {
			out.heapMB = append(out.heapMB, heap)
		}
	}
	return out, nil
}

// timedSetup runs build reps times and returns the last product with
// the median set-up time in seconds. build returns the time it counts
// as set-up, in CPU time, which leaves out its checks. Earlier products are released
// through drop before the next build, so repeated set-ups do not
// accumulate memory.
func timedSetup[T any](reps int, build func() (T, time.Duration, error), drop func(T)) (T, float64, error) {
	var out T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(out)
		}
		runtime.GC()
		v, took, err := build()
		if err != nil {
			return out, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
		out = v
	}
	return out, median(times), nil
}

// liveHeapMB forces two collections and returns the heap in use in
// megabytes. The second empties the sync.Pools' victim caches, whose
// contents depend on timing; so every round starts with the program's
// pools empty, the same in every run.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checks collects check failures; the first few are kept verbatim.
type checks struct {
	n    int
	msgs []string
}

func (c *checks) add(err error) {
	if err == nil {
		return
	}
	c.n++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, err.Error())
	}
}

// merge adds another collection's failures to c.
func (c *checks) merge(o checks) {
	c.n += o.n
	for _, msg := range o.msgs {
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, msg)
		}
	}
}

// forEach calls f for every index below n from one goroutine per CPU
// and waits for them. Checks use it between rounds, off the clock.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// stratified draws n relations with sizes uniform over the paper's
// range 10³–10⁵, one from each of n equal strata in seeded order (a
// Latin hypercube sample): every relation's size is still uniform over
// the range, but no plan is made of only small or only large relations,
// so a run's figures depend less on the seed.
func stratified(r *rand.Rand, n int) []*query.Relation {
	cfg := query.DefaultGenConfig(n - 1)
	span := float64(cfg.MaxTuples - cfg.MinTuples)
	rels := make([]*query.Relation, n)
	for i, stratum := range r.Perm(n) {
		size := cfg.MinTuples + int((float64(stratum)+r.Float64())/float64(n)*span)
		rels[i] = &query.Relation{Name: fmt.Sprintf("R%d", i), Tuples: size}
	}
	return rels
}

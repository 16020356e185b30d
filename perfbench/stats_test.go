package main

import (
	"testing"
	"time"
)

func TestMedianIsNearestRank(t *testing.T) {
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %v, want the nearest-rank 2", got)
	}
	if got := medianDur([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}, time.Millisecond); got != 2 {
		t.Errorf("medianDur = %v ms, want 2", got)
	}
	if median(nil) != 0 || mean(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("an idle layer must read 0")
	}
}

func TestSplitPhaseAlternatesClasses(t *testing.T) {
	ph := phase{distinct: 3, split: true}
	for r, want := range []pick{{k: 0}, {k: 0, hi: true}, {k: 1}, {k: 1, hi: true}, {k: 2}, {k: 2, hi: true}, {k: 0}} {
		if got, pass := ph.pick(r); got != want || pass != 6 {
			t.Errorf("pick(%d) = %+v, pass %d; want %+v, pass 6", r, got, pass, want)
		}
	}
	if got, _ := (phase{distinct: 3}).pick(4); got != (pick{k: 1, all: true}) || !got.has(true) || !got.has(false) {
		t.Errorf("unsplit pick(4) = %+v, want distinct round 1, every class", got)
	}
}

// The closed loop's CPU time is apportioned to classes by round, never
// by operation: each round holds one class.
func TestSetEndToEndChargesEachClassItsRounds(t *testing.T) {
	ms := time.Millisecond
	var st tally
	for i := 0; i < 4; i++ {
		st.add(0, 5*ms, 0, false)
	}
	for i := 0; i < 2; i++ {
		st.add(1, 9*ms, 0, true)
	}
	st.add(2, 7*ms, 0, false)
	st.timed(ran{rounds: []struct{ wall, spent time.Duration }{{10 * ms, 40 * ms}, {10 * ms, 60 * ms}, {10 * ms, 20 * ms}}})
	st.attempted = 7
	var o outcome
	if err := o.setEndToEnd(&st); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"cpu_ms": 120.0 / 7, "lo.cpu_ms": 60.0 / 5, "hi.cpu_ms": 30} {
		if got := o.values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if o.attempted != 7 {
		t.Errorf("attempted = %d, want 7", o.attempted)
	}

	var one tally
	one.add(0, ms, 0, false)
	one.timed(ran{rounds: []struct{ wall, spent time.Duration }{{ms, ms}}})
	if err := (&outcome{}).setEndToEnd(&one); err == nil {
		t.Error("a closed loop without a hi round must be refused")
	}
}

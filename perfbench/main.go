// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the program's exported functions, checks
// every output, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_ms": {"value": 8.9, "unit": "ms"}, ...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with no timers
// inside an operation, only around it. --trace 1 runs the same workload with timers
// around the calls into each layer and prints the per-layer metrics,
// plus the tracing overhead against an untraced phase of the same run.
// README.md lists the workloads, metrics and reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// System parameters shared by every workload: the paper's f and ε.
const (
	paperF   = 0.7
	paperEps = 0.5
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// share returns the given fraction of the run's measuring time.
func (c config) share(f float64) time.Duration {
	return time.Duration(c.seconds * f * float64(time.Second))
}

// outcome is what a workload hands back: operation counts, check
// failures, and every metric it measured, by name.
type outcome struct {
	attempted, failed int
	checks            checks
	values            map[string]float64
	notes             []string
}

func (o *outcome) set(name string, v float64) {
	if o.values == nil {
		o.values = make(map[string]float64)
	}
	o.values[name] = v
}

// endToEnd lists the metrics of an untraced run with their units.
// Every workload reports every one of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms", "ms"},
	{"lo.cpu_ms", "ms"},
	{"hi.cpu_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"resp_over_optbound", "ratio"},
}

// perLayer lists the metrics of a traced run. A layer a workload
// leaves idle reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"query.decode_us", "us"},
	{"plan.prepare_us", "us"},
	{"serve.schedule_ms", "ms"},
	{"sched.batch_ms", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.group_size", "count"},
	{"sched.encode_ms", "ms"},
	{"optimizer.search_ms", "ms"},
	{"optimizer.enumerated", "count"},
	{"optimizer.scheduled", "count"},
	{"optimizer.pruned", "count"},
	{"optimizer.subtree_pruned", "count"},
	{"optimizer.warm_hits", "count"},
	{"optimizer.scheduled_frac", "ratio"},
	{"query.enumerate_ms", "ms"},
	{"opt.bound_us", "us"},
	{"sched.tree_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.tuples_per_s", "1/s"},
	{"engine.allocs_per_run", "count"},
	{"engine.alloc_mb_per_run", "MB"},
	{"engine.arena_reuse_frac", "ratio"},
	{"trace.overhead_ms", "ms"},
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-batch": runServeBatch,
	"plan-search": runPlanSearch,
	"execute":     runExecute,
}

func main() {
	name := flag.String("workload", "", "workload: serve-batch, plan-search or execute")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 12, "measured seconds per run, split over the phases")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	res := result{
		Correct:   out.checks.n == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	fmt.Printf("# workload=%s seed=%d trace=%d gomaxprocs=%d cpu=%q go=%s attempted=%d failed=%d\n",
		*name, *seed, *trace, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), out.attempted, out.failed)
	for _, n := range out.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, m := range list {
		v, ok := out.values[m.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, m.name)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-26s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, msg := range out.checks.msgs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, if there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

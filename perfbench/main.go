// Command perfbench is the repository's benchmark: one workload per
// process, measured end to end over the program's public entry points
// (gio.Load, core.Solve, serve.New and its HTTP handler, cluster.New and
// its handler, POST /edge), with every answer checked. An untraced run
// (-trace 0) reports the end-to-end metrics; a traced run (-trace 1)
// records spans around the calls into each layer and reads the counters
// the program publishes, and reports the per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds it from source first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// README.md describes the workloads, the metrics and the noise record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

// workloads is the benchmark's workload table, in run order.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"apsp-solve", runSolve},
	{"serve-hot", runServeHot},
	{"serve-churn", runServeChurn},
}

// endToEnd and perLayer name every reported metric with its unit; they
// mirror BENCHMARK.json (the smoke test keeps the two in step). Every
// workload reports every metric of its run kind; a per-layer metric of a
// layer the workload does not exercise reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rel_ops_per_s", "x"},
	{"rel_p50", "x"},
	{"rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"gio.load_ms", "ms"},
	{"oracle.build_ms", "ms"},
	{"serve.new_ms", "ms"},
	{"serve.warm_ms", "ms"},
	{"order.ordering_ms", "ms"},
	{"core.sssp_ms", "ms"},
	{"core.edge_scans", "count"},
	{"core.pops", "count"},
	{"core.folds", "count"},
	{"core.fold_entries_skipped", "count"},
	{"core.stats_spread", "fraction"},
	{"sched.speedup", "x"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cpu_frac", "fraction"},
	{"go.allocs_per_op", "count"},
	{"go.cpu_us_per_op", "us"},
	{"serve.parse_us", "us"},
	{"serve.inproc_us", "us"},
	{"serve.http_residual_us", "us"},
	{"serve.handler_us", "us"},
	{"http.transport_us", "us"},
	{"admit.admit_us", "us"},
	{"admit.requests_per_op", "count"},
	{"admit.rejected", "count"},
	{"store.lookups_per_op", "count"},
	{"store.t1_hit_frac", "fraction"},
	{"store.t2_frac", "fraction"},
	{"store.t3_frac", "fraction"},
	{"store.miss_frac", "fraction"},
	{"store.t2_promote_us", "us"},
	{"store.t3_promote_us", "us"},
	{"store.demote_us", "us"},
	{"store.readonly_t3_frac", "fraction"},
	{"store.readonly_t3_promote_us", "us"},
	{"core.solves_measured", "count"},
	{"core.subset_rows_per_op", "count"},
	{"core.subset_us_per_row", "us"},
	{"dyn.edge_us", "us"},
	{"dyn.retagged_frac", "fraction"},
	{"dyn.repaired_frac", "fraction"},
	{"dyn.invalidated_frac", "fraction"},
	{"store.dyn_retagged_frac", "fraction"},
	{"store.dyn_dropped_frac", "fraction"},
	{"cluster.hop_us", "us"},
	{"cluster.handler_us", "us"},
	{"cluster.hedges_per_op", "count"},
	{"cluster.retries_per_op", "count"},
	{"client.ops_per_s", "1/s"},
	{"client.p50_us", "us"},
	{"client.p90_us", "us"},
	{"client.p99_us", "us"},
	{"client.samples", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

// sizes is one input scale. full is what the benchmark measures; tiny is
// the smoke test's scale.
type sizes struct {
	solveN    int // apsp-solve vertices (before isolated ones are dropped)
	serveN    int // serve-* and routed-hot vertices
	hot       int // hot sources, resident in T1 after setup
	t1Rows    int // serve-churn T1 budget, in rows
	working   int // serve-churn working-set sources
	toggles   int // serve-churn edges toggled between weight 1 and 2
	setups    int // set-ups per run; setup_s is their median
	checkRows int // apsp-solve rows checked against BFS
}

var sizePresets = map[string]sizes{
	"full": {solveN: 8000, serveN: 20000, hot: 64, t1Rows: 16, working: 1024, toggles: 128, setups: 5, checkRows: 16},
	"tiny": {solveN: 300, serveN: 400, hot: 8, t1Rows: 2, working: 64, toggles: 8, setups: 2, checkRows: 8},
}

const (
	// conns is the client connection count of the serve workloads: the
	// box's 2 cores, so client and server share them as a deployment's
	// co-located load generator would.
	conns = 2
	// solveWorkers is the ParAPSP worker count, also nproc.
	solveWorkers = 2
	// gamma and minDeg shape every generated power-law graph.
	gamma  = 2.5
	minDeg = 2
)

// run is one workload invocation: its inputs, its scratch directory, and
// the metrics and check results it accumulates.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	sz       sizes
	dir      string
	tr       *tracer // nil unless traced

	e2e, layers       map[string]float64
	attempted, failed int64
	problems          []string
}

// notePeakRSS records the process's peak resident set as rss_mb. Workloads
// call it as soon as the measured phase ends, before the checks and the
// reporting allocate memory whose size follows the op count.
func (r *run) notePeakRSS() {
	rss, err := peakRSSMiB()
	if err != nil {
		r.problem("rss: %v", err)
	}
	r.metric("rss_mb", rss)
}

func (r *run) metric(name string, v float64) { r.e2e[name] = v }
func (r *run) layer(name string, v float64)  { r.layers[name] = v }

// problem records a failed correctness, ledger or bypass check.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// info prints a diagnostic line that is not a gated metric.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	size := flag.String("size", "full", "input scale: full|tiny")
	workdir := flag.String("workdir", ".bench_build", "directory for generated inputs, spill files and traces")
	flag.Parse()

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *size, *workdir))
	}
	sz, ok := sizePresets[*size]
	if !ok {
		fatal(fmt.Errorf("unknown -size %q", *size))
	}
	var fn func(*run) error
	for _, w := range workloads {
		if w.name == *workload {
			fn = w.run
		}
	}
	if fn == nil {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("perfbench-%s-%d", *workload, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	r := &run{
		workload: *workload, seed: *seed, traced: *trace == 1, sz: sz, dir: dir,
		seconds: time.Duration(*seconds * float64(time.Second)),
		e2e:     map[string]float64{}, layers: map[string]float64{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	err = fn(r)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	if r.traced {
		path := filepath.Join(*workdir, "trace-"+*workload+".json")
		if err := r.tr.writeChrome(path); err != nil {
			fatal(err)
		}
		info("trace written to %s", path)
	}
	os.Exit(r.report())
}

// report prints every metric of the run kind by name with its unit, then
// the result line, and returns the exit code: 1 when any check failed.
func (r *run) report() int {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layers
	}
	out := resultOut{Correct: len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.traced {
			r.problem("end-to-end metric %s was not measured", d.name)
			out.Correct = false
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %16.4f %s\n", d.name, v, d.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.workload, p)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", out.Attempted, out.Failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runAll runs every workload, untraced and then traced, each in its own
// process one after another, with the other flags as parsed. It returns 1
// if any run failed.
func runAll(seed int64, seconds float64, size, workdir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			fmt.Printf("== %s trace=%s\n", w.name, trace)
			cmd := exec.Command(self, "-workload", w.name, "-trace", trace,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-size", size, "-workdir", workdir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%s: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// setupMedian runs a workload's set-up the configured number of times,
// tearing down every instance but the last, and records the median
// duration as setup_s. Set-up is repeated because one 0.1-0.6 s start-up
// varies by ±25% on a shared host; the median of five varies far less.
func setupMedian[T any](r *run, setup func() (T, error), teardown func(T) error) (T, error) {
	var last, zero T
	var durs []float64
	for i := 0; i < r.sz.setups; i++ {
		if i > 0 {
			if err := teardown(last); err != nil {
				return last, err
			}
			// Drop the torn-down instance before collecting, so no two
			// instances' memory is ever live at once.
			last = zero
		}
		// Start every set-up from a collected heap with the freed pages
		// returned to the OS, so its duration and the peak resident set
		// do not depend on when the collector last ran or on which freed
		// spans the allocator happens to reuse.
		debug.FreeOSMemory()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		durs = append(durs, time.Since(start).Seconds())
		last = v
	}
	r.metric("setup_s", median(durs))
	info("setup_s each %v", durs)
	if peak, err := peakRSSMiB(); err == nil {
		info("peak rss after set-up %.1f MiB", peak)
	}
	return last, nil
}

// setupSpan runs one set-up step, recording it as a span on the setup
// lane.
func (r *run) setupSpan(name string, parent int64, fn func() error) error {
	start := time.Now()
	err := fn()
	r.tr.record(name, start, time.Now(), 0, parent, parent, setupLane)
	return err
}

// medianMs returns the median duration of the named spans in ms.
func (r *run) medianMs(name string) float64 {
	return median(r.tr.durations(name)) / 1e6
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the program's public entry points. Spans of one request
// share req; parent is the id of the span that caused this one (0 for a
// root). lane groups spans for display: a client connection, or setup.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent int64
	req        int64
	lane       int
}

func (s span) dur() time.Duration { return s.end - s.start }

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped, and the per-layer numbers use the spans kept. A 30-second
// traced serve-hot run, router phase included, keeps about 900,000.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how untraced runs and untraced
// windows call it.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	ids     int64
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// newID returns a fresh span id (also used as request ids).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, start, end time.Time, id, parent, req int64, lane int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.ids++
		id = t.ids
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch),
		id: id, parent: parent, req: req, lane: lane})
	return id
}

// count returns the number of spans kept.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microsecond timestamps), loadable in Perfetto or
// chrome://tracing. One tid per lane, so a request's spans nest.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": %d}, \"traceEvents\": [\n", t.dropped)
	fmt.Fprintf(w, `{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "perfbench"}}`)
	lanes := map[int]bool{}
	for _, s := range t.spans {
		if !lanes[s.lane] {
			lanes[s.lane] = true
			fmt.Fprintf(w, ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": %q}}", s.lane, laneName(s.lane))
		}
	}
	for _, s := range t.spans {
		fmt.Fprintf(w, ",\n{\"name\": %q, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %s, \"dur\": %s, \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}",
			s.name, s.lane, usec(s.start), usec(s.dur()), s.id, s.parent, s.req)
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupLane is the display lane of setup spans; client connections use
// lanes 0..conns-1.
const setupLane = 100

func laneName(l int) string {
	if l == setupLane {
		return "setup"
	}
	return "conn " + strconv.Itoa(l)
}

func usec(d time.Duration) string {
	ns := d.Nanoseconds()
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; it sorts xs in place. NaN-free input only; 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// goSnap is a point-in-time reading of the Go runtime's allocation and CPU
// accounting plus the process's CPU time from getrusage. Deltas between
// two snapshots attribute runtime cost to a measured window; the process
// includes the benchmark's own client, so per-op CPU covers both ends.
type goSnap struct {
	allocBytes, allocObjs float64
	gcCPU, totalCPU       float64 // runtime/metrics estimates, seconds
	rusageCPU             time.Duration
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeGoSnap() goSnap {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return goSnap{allocBytes: val(0), allocObjs: val(1), gcCPU: val(2), totalCPU: val(3), rusageCPU: cpu}
}

// goAcc sums runtime deltas over the windows attributed to one mode.
type goAcc struct {
	allocBytes, allocObjs, gcCPU, totalCPU float64
	cpu                                    time.Duration
}

func (a *goAcc) add(from, to goSnap) {
	a.allocBytes += to.allocBytes - from.allocBytes
	a.allocObjs += to.allocObjs - from.allocObjs
	a.gcCPU += to.gcCPU - from.gcCPU
	a.totalCPU += to.totalCPU - from.totalCPU
	a.cpu += to.rusageCPU - from.rusageCPU
}

// report adds the go.* per-layer metrics for ops operations.
func (a *goAcc) report(r *run, ops int64) {
	if ops < 1 {
		ops = 1
	}
	r.layer("go.alloc_mb_per_op", a.allocBytes/float64(ops)/(1<<20))
	r.layer("go.allocs_per_op", a.allocObjs/float64(ops))
	frac := 0.0
	if a.totalCPU > 0 {
		frac = a.gcCPU / a.totalCPU
	}
	r.layer("go.gc_cpu_frac", frac)
	r.layer("go.cpu_us_per_op", float64(a.cpu.Microseconds())/float64(ops))
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

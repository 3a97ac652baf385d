package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"parapsp/internal/core"
	"parapsp/internal/graph"
	"parapsp/internal/matrix"
)

// runSolve is the apsp-solve workload: back-to-back core.Solve(ParAPSP)
// on an unweighted power-law graph loaded from an edge-list file, with the
// n×n matrix several times the last-level cache — the paper's algorithm in
// its memory-bound fold regime. The batch engine is pinned off so the
// measured mechanism stays the paper's modified Dijkstra with row folds.
// HTTP, admission and the row store do no work here.
func runSolve(r *run) error {
	edges, n := powerLaw(r.sz.solveN, gamma, minDeg, r.seed)
	path, err := writeEdgeList(r.dir, edges)
	if err != nil {
		return err
	}
	ref := newRefGraph(n, edges)
	info("apsp-solve input: n=%d edges=%d matrix=%.0f MiB workers=%d", n, len(edges), float64(n)*float64(n)*4/(1<<20), solveWorkers)
	opts := core.Options{Workers: solveWorkers, Batch: core.BatchOff}

	// Set-up: load the edge list and run one solve, which fixes the
	// checksum every later solve must reproduce.
	var want uint64
	g, err := setupMedian(r, func() (*graph.Graph, error) {
		root := r.tr.newID()
		start := time.Now()
		var g *graph.Graph
		if err := r.setupSpan("gio.Load", root, func() (err error) {
			g, err = loadGraph(path, n)
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.setupSpan("core.Solve.warm", root, func() error {
			res, err := core.Solve(g, core.ParAPSP, opts)
			if err != nil {
				return err
			}
			want = res.D.Checksum()
			return nil
		}); err != nil {
			return nil, err
		}
		r.tr.record("setup", start, time.Now(), root, 0, root, setupLane)
		return g, nil
	}, func(*graph.Graph) error { return nil })
	if err != nil {
		return err
	}

	// Measured phase. An untraced run follows every solve with a run of
	// the reference, naiveAPSP, writing into the solve's matrix; a traced
	// run alternates untraced and traced solves so the go.* numbers and
	// the tracing overhead come from the same stretch of time.
	var (
		last              *core.Result
		lat, tracedLat    []float64
		refLat, pairs     []float64
		ordering, sssp    []float64
		scans, pops       []float64
		folds, skipped    []float64
		acc               goAcc
		untracedN         int64
		untracedT, tracdT time.Duration
	)
	phase := time.Now()
	for i := 0; time.Since(phase) < r.seconds; i++ {
		if last != nil && !r.traced {
			start := time.Now()
			naiveAPSP(ref, last.D)
			d := float64(time.Since(start))
			refLat = append(refLat, d)
			pairs = append(pairs, d/lat[len(lat)-1])
		}
		// Drop the previous matrix and release it to the OS before the
		// next solve, so every solve starts as a one-shot run does and
		// peak RSS is one matrix. Collecting without releasing let the
		// allocator put the next matrix beside the freed one in some runs,
		// and peak RSS read 258 or 500 MiB by luck.
		last = nil
		debug.FreeOSMemory()
		traced := r.traced && i%2 == 1
		before := takeGoSnap()
		start := time.Now()
		res, err := core.Solve(g, core.ParAPSP, opts)
		end := time.Now()
		after := takeGoSnap()
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("solve %d: %v", i, err)
			continue
		}
		if sum := res.D.Checksum(); sum != want {
			r.failed++
			r.problem("solve %d: checksum %#x, want %#x", i, sum, want)
			continue
		}
		d := end.Sub(start)
		if traced {
			tracedLat = append(tracedLat, float64(d))
			tracdT += d
			root := r.tr.record("core.Solve", start, end, 0, 0, 0, 0)
			// The phase split is the solver's own Result timing, placed
			// inside the measured call: ordering first, then the SSSP loop.
			ordEnd := start.Add(res.OrderingTime)
			r.tr.record("order.ordering", start, ordEnd, 0, root, root, 0)
			r.tr.record("core.sssp", ordEnd, ordEnd.Add(res.SSSPTime), 0, root, root, 0)
		} else {
			lat = append(lat, float64(d))
			untracedT += d
			untracedN++
			acc.add(before, after)
		}
		ordering = append(ordering, float64(res.OrderingTime))
		sssp = append(sssp, float64(res.SSSPTime))
		scans = append(scans, float64(res.Stats.EdgeScans))
		pops = append(pops, float64(res.Stats.Pops))
		folds = append(folds, float64(res.Stats.Folds))
		skipped = append(skipped, float64(res.Stats.FoldEntriesSkipped))
		last = res
	}
	r.notePeakRSS()
	if last == nil {
		return fmt.Errorf("no solve completed in %v", r.seconds)
	}
	checkRows(r, last.D, ref)

	// Throughput is solves per second of solve time: the checksum pass and
	// the collection between solves are the benchmark's, not the solver's.
	// Against the reference it is the median, over adjacent pairs, of
	// reference time / solve time.
	info("apsp-solve: %d untraced solves, %.3f solves/s, p50 %.0f us, p90 %.0f us (too few samples to gate)",
		len(lat), float64(untracedN)/untracedT.Seconds(), median(lat)/1e3, quantile(lat, 0.9)/1e3)
	if !r.traced {
		info("reference: %d runs, p50 %.0f us", len(refLat), median(refLat)/1e3)
		r.metric("rel_ops_per_s", median(pairs))
		r.metric("rel_p50", median(lat)/median(refLat))
		return nil
	}

	r.layer("gio.load_ms", r.medianMs("gio.Load"))
	r.layer("order.ordering_ms", median(ordering)/1e6)
	r.layer("core.sssp_ms", median(sssp)/1e6)
	r.layer("core.edge_scans", mean(scans))
	r.layer("core.pops", mean(pops))
	r.layer("core.folds", mean(folds))
	r.layer("core.fold_entries_skipped", mean(skipped))
	// At 2 workers the dynamic schedule changes which rows are complete
	// when a search folds, so the counts vary; report their widest
	// relative spread.
	spread := 0.0
	for _, xs := range [][]float64{scans, pops, folds, skipped} {
		lo, hi := quantile(xs, 0), quantile(xs, 1)
		if m := median(xs); m > 0 && (hi-lo)/m > spread {
			spread = (hi - lo) / m
		}
	}
	r.layer("core.stats_spread", spread)
	acc.report(r, untracedN)
	r.layer("client.ops_per_s", float64(untracedN)/untracedT.Seconds())
	r.layer("client.p50_us", median(lat)/1e3)
	r.layer("client.p90_us", quantile(lat, 0.9)/1e3)
	r.layer("client.p99_us", quantile(lat, 0.99)/1e3)
	r.layer("client.samples", float64(len(lat)))
	if len(tracedLat) > 0 {
		r.layer("trace.overhead_frac", 1-(float64(len(tracedLat))/tracdT.Seconds())/(float64(untracedN)/untracedT.Seconds()))
	}
	last = nil

	// sched.speedup: 1-worker against solveWorkers-worker solves of the
	// same graph, interleaved so host drift hits both alike.
	var one, many []float64
	for i := 0; i < 2; i++ {
		for _, w := range []int{1, solveWorkers} {
			debug.FreeOSMemory()
			start := time.Now()
			res, err := core.Solve(g, core.ParAPSP, core.Options{Workers: w, Batch: core.BatchOff})
			d := float64(time.Since(start))
			if err != nil {
				return err
			}
			if sum := res.D.Checksum(); sum != want {
				r.problem("%d-worker solve: checksum %#x, want %#x", w, sum, want)
			}
			if w == 1 {
				one = append(one, d)
			} else {
				many = append(many, d)
			}
		}
	}
	r.layer("sched.speedup", median(one)/median(many))
	r.layer("trace.spans", float64(r.tr.count()))
	return nil
}

// checkRows compares a seeded sample of matrix rows entry by entry with
// the benchmark's own BFS. A wrong row fails every solve, since they all
// produced the same checksum.
func checkRows(r *run, d *matrix.Matrix, ref *refGraph) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	for k := 0; k < r.sz.checkRows; k++ {
		s := int32(rng.Intn(ref.n()))
		truth := ref.distances(s)
		row := d.Row(int(s))
		for v, t := range truth {
			got := int64(row[v])
			if row[v] == matrix.Inf {
				got = unreachable
			}
			if got != t {
				r.problem("row %d col %d: solver %d, BFS %d", s, v, got, t)
				r.failed = r.attempted
				return
			}
		}
	}
}

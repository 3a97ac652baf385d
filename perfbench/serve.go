package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/cluster"
	"parapsp/internal/core"
	"parapsp/internal/oracle"
	"parapsp/internal/serve"
)

// input is a serve workload's generated graph: the edge list the
// benchmark checks answers against and the file the program loads.
type input struct {
	edges [][2]int32
	n     int
	path  string
}

func (r *run) serveInput() (*input, error) {
	edges, n := powerLaw(r.sz.serveN, gamma, minDeg, r.seed)
	path, err := writeEdgeList(r.dir, edges)
	if err != nil {
		return nil, err
	}
	return &input{edges: edges, n: n, path: path}, nil
}

// pickSources returns k distinct seeded vertices.
func pickSources(rng *rand.Rand, n, k int) []int32 {
	perm := rng.Perm(n)[:k]
	out := make([]int32, k)
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}

func newConns(seed int64) []*conn {
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = newConn(i, seed)
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// hotOp is the serve-hot and routed-hot operation: an exact GET /dist
// from a hot source to a uniform target, checked on the spot against the
// hot sources' precomputed distance rows. A wrong answer fails the op.
func hotOp(hot []int32, truth [][]int32) opFunc {
	return func(c *conn, m *mode, req int64) (bool, error) {
		i, v := c.rng.Intn(len(hot)), int32(c.rng.Intn(len(truth[0])))
		d, ver, err := c.dist(m.base, hot[i], v, req)
		if err != nil {
			return false, err
		}
		if ver != 1 || d != int64(truth[i][v]) {
			return false, fmt.Errorf("wrong answer: dist(%d,%d) = %d at version %d, want %d at version 1",
				hot[i], v, d, ver, truth[i][v])
		}
		return false, nil
	}
}

// hotSet picks the seeded hot sources and computes their true rows,
// kept as int32 so the benchmark's own memory stays a small share of
// rss_mb.
func (r *run) hotSet(in *input) ([]int32, [][]int32) {
	hot := pickSources(rand.New(rand.NewSource(r.seed)), in.n, r.sz.hot)
	ref := newRefGraph(in.n, in.edges)
	truth := make([][]int32, len(hot))
	for i, s := range hot {
		truth[i] = make([]int32, in.n)
		for v, d := range ref.distances(s) {
			truth[i][v] = int32(d)
		}
	}
	return hot, truth
}

// runServeHot is the serve-hot workload: two keep-alive connections send
// exact GET /dist requests whose sources come from a hot set resident in
// T1 after set-up. Every request is a T1 hit, so the solver, the
// compressed tiers and dyn do no work; what remains is the fixed
// per-request cost of HTTP, parsing, admission, the T1 lookup and the
// JSON encoding. A traced run then prices the router hop (routerHop).
func runServeHot(r *run) error {
	in, err := r.serveInput()
	if err != nil {
		return err
	}
	hot, truth := r.hotSet(in)
	cfg := serve.Config{Workers: solveWorkers}
	info("serve-hot input: n=%d edges=%d hot=%d conns=%d", in.n, len(in.edges), len(hot), conns)
	d, err := setupMedian(r, func() (*daemon, error) {
		return timedSetup(r, func(root int64) (*daemon, error) { return r.setupServer(in, cfg, hot, root) })
	}, (*daemon).stop)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	if !r.traced {
		ref, err := startRef(hotRef(hot, truth))
		if err != nil {
			return err
		}
		cs := newConns(r.seed)
		stats := r.loop(cs, []mode{{name: "direct", base: d.base}, {name: "reference", base: ref.base, ref: true}},
			hotOp(hot, truth), r.seconds)
		closeConns(cs)
		if err := ref.stop(); err != nil {
			return err
		}
		after, err := scrape(d.base)
		if err != nil {
			return err
		}
		checkServeLedgers(r, "server", after)
		checkHotBypass(r, "server", before, after)
		r.endToEnd(stats[0], stats[1])
		return d.stop()
	}
	modes := []mode{{name: "direct", base: d.base}, {name: "direct-traced", base: d.base, traced: true}}
	cs := newConns(r.seed)
	stats := r.loop(cs, modes, hotOp(hot, truth), r.seconds)
	closeConns(cs)
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	checkServeLedgers(r, "server", after)
	checkHotBypass(r, "server", before, after)

	r.setupLayers(in)
	ops := stats[0].ops + stats[1].ops
	r.counterLayers(delta(before, after), ops)
	r.clientLayers(stats[0], stats[1])
	parse, inproc, err := inprocCosts(d.srv, hot, in.n, r.seed)
	if err != nil {
		return err
	}
	r.layer("serve.parse_us", parse)
	r.layer("serve.inproc_us", inproc)
	r.layer("serve.http_residual_us", median(stats[0].lat)/1e3-parse-inproc)
	admitUs, err := admitCost()
	if err != nil {
		return err
	}
	r.layer("admit.admit_us", admitUs)
	handler := median(r.tr.durations("serve.handler")) / 1e3
	r.layer("serve.handler_us", handler)
	r.layer("http.transport_us", median(stats[1].lat)/1e3-handler)
	if err := r.routerHop(in, d, hot, truth); err != nil {
		return err
	}
	r.layer("trace.spans", float64(r.tr.count()))
	return d.stop()
}

// runServeChurn is the serve-churn workload: reads draw sources uniformly
// from a working set 64x the T1 byte budget, more than T1 and the default
// T2 hold, and every 20th op of a connection is a POST /edge reweight of
// one of a seeded set of existing edges, so subset solves of invalidated
// rows, dyn/store reconcile and tier promotes do most of the work, and
// both repair (improve) and invalidation (worsen) fire. A traced run adds
// a read-only phase that prices the cold tier.
func runServeChurn(r *run) error {
	in, err := r.serveInput()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	working := pickSources(rng, in.n, r.sz.working)
	toggles := pickToggles(rng, in, r.sz.toggles)
	rowBytes := int64(in.n) * 4
	info("serve-churn input: n=%d edges=%d working=%d rows (%.0fx the T1 budget of %d rows) toggles=%d write_share=1/%d conns=%d",
		in.n, len(in.edges), len(working), float64(len(working))/float64(r.sz.t1Rows), r.sz.t1Rows, len(toggles), churnWriteEvery, conns)
	setups := 0
	d, err := setupMedian(r, func() (*daemon, error) {
		// A fresh spill directory per set-up: reopening one would
		// warm-start the cold tier from the previous instance's frames.
		setups++
		spill := filepath.Join(r.dir, "spill-"+strconv.Itoa(setups))
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return nil, err
		}
		cfg := serve.Config{Workers: solveWorkers, CacheBytes: int64(r.sz.t1Rows) * rowBytes,
			SpillBytes: 256 << 20, SpillDir: spill}
		return timedSetup(r, func(root int64) (*daemon, error) { return r.setupServer(in, cfg, working, root) })
	}, (*daemon).stop)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	modes := []mode{{name: "churn", base: d.base}}
	var ref *refDaemon
	if r.traced {
		modes = append(modes, mode{name: "churn-traced", base: d.base, traced: true})
	} else {
		if ref, err = startRef(churnRef(in)); err != nil {
			return err
		}
		modes = append(modes, mode{name: "reference", base: ref.base, ref: true})
	}
	// The program and the reference each keep their own graph, so each
	// side has its own edge weights and write counts.
	var weights [2][]int64
	for side := range weights {
		weights[side] = make([]int64, len(toggles))
		for i := range weights[side] {
			weights[side][i] = 1
		}
	}
	// lastEdge holds, per connection, the index of the toggled edge the
	// connection wrote last on the program's side (-1 before its first
	// write): that edge is off its base weight, or was just put back.
	lastEdge := make([]atomic.Int32, conns)
	for i := range lastEdge {
		lastEdge[i].Store(-1)
	}
	writeEvery := churnWriteEvery // 0 in the read-only phase of a traced run
	op := func(c *conn, m *mode, req int64) (bool, error) {
		side := 0
		if m.ref {
			side = 1
		}
		c.ops[side]++
		if writeEvery == 0 || c.ops[side]%writeEvery != 0 {
			u, v := working[c.rng.Intn(len(working))], int32(c.rng.Intn(in.n))
			if writeEvery != 0 && c.ops[side]%writeEvery == 1 && c.writes[side] > 0 {
				// The read right after a connection's write reads the
				// write back, from the source the connection read just
				// before it. That row was in T1 when the write reconciled
				// it, so a stale or unrepaired hot row shows here.
				u, v = c.lastSrc[side], toggles[c.lastIdx[side]][c.rng.Intn(2)]
			} else if c.rng.Intn(2) == 0 {
				// Half the other targets are endpoints of the edge some
				// connection wrote last, whose distances that write
				// moved: a uniform target almost never lands behind a
				// reweighted low-degree edge, so a stale row would go
				// unnoticed. The target does not change the server's
				// work, which is per source row.
				if e := lastEdge[c.rng.Intn(conns)].Load(); e >= 0 {
					v = toggles[e][c.rng.Intn(2)]
				}
			}
			c.lastSrc[side] = u
			d, ver, err := c.dist(m.base, u, v, req)
			if err == nil && !m.ref {
				c.answers = append(c.answers, answer{u: u, v: v, dist: d, ver: ver})
			}
			return false, err
		}
		// Writes come in pairs on one edge, 1 -> 2 then 2 -> 1, and each
		// connection toggles only its own edges, so worsening and
		// improving writes alternate and at most one edge per connection
		// is off its base weight: the write mix and the graph stay
		// stationary however long the run is.
		idx := c.id + conns*(c.writes[side]/2%(len(toggles)/conns))
		c.writes[side]++
		e, w := toggles[idx], 3-weights[side][idx]
		body := fmt.Sprintf(`{"op":"reweight","u":%d,"v":%d,"w":%d}`, e[0], e[1], w)
		status, ver, resp, err := c.do(http.MethodPost, m.base+"/edge", []byte(body), req)
		if err != nil {
			return true, err
		}
		if status != http.StatusOK || ver == 0 {
			return true, fmt.Errorf("POST /edge: status %d version %d: %s", status, ver, resp)
		}
		weights[side][idx] = w
		c.lastIdx[side] = idx
		if !m.ref {
			lastEdge[c.id].Store(int32(idx))
			c.log = append(c.log, writeRec{ver: ver, edge: e, w: w})
		}
		return true, nil
	}
	cs := newConns(r.seed)
	stats := r.loop(cs, modes, op, r.seconds)
	closeConns(cs)
	if ref != nil {
		if err := ref.stop(); err != nil {
			return err
		}
	}
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	if r.traced {
		// A read-only phase prices the cold tier. Under writes a frame is
		// dropped or rewritten long before it ages into T3; with none, the
		// working set overflows T1 and T2 and is read back from T3.
		writeEvery = 0
		r.loop(cs, []mode{{name: "read-only", base: d.base}}, op, r.seconds/3)
		closeConns(cs)
		final, err := scrape(d.base)
		if err != nil {
			return err
		}
		cd := delta(after, final)
		r.layer("store.readonly_t3_frac", frac(cd["serve.store.t3_promotes"], cd["serve.store.lookups"]))
		r.layer("store.readonly_t3_promote_us",
			frac(cd["serve.store.t3_promote.sum_ns"], cd["serve.store.t3_promote.count"])/1e3)
		checkServeLedgers(r, "server", final)
	}
	var writes []writeRec
	for _, c := range cs {
		writes = append(writes, c.log...)
	}
	checkAnswers(r, in, cs, writes)
	checkServeLedgers(r, "server", after)
	if !r.traced {
		r.endToEnd(stats[0], stats[1])
		return d.stop()
	}

	r.setupLayers(in)
	ops := stats[0].ops + stats[1].ops
	r.counterLayers(delta(before, after), ops)
	r.clientLayers(stats[0], stats[1])
	r.layer("dyn.edge_us", median(stats[0].wlat)/1e3)
	r.layer("serve.handler_us", median(r.tr.durations("serve.handler"))/1e3)
	// core.subset_us_per_row: standalone single-source subset solves of
	// a seeded sample of the working set, on the graph as the run left it.
	g := d.srv.Graph()
	var per []float64
	for _, s := range pickSources(rand.New(rand.NewSource(r.seed+1)), len(working), 16) {
		start := time.Now()
		if _, err := core.SolveSubset(g, []int32{working[s]}, core.Options{Workers: solveWorkers}); err != nil {
			return err
		}
		per = append(per, float64(time.Since(start)))
	}
	r.layer("core.subset_us_per_row", median(per)/1e3)
	return d.stop()
}

// pickToggles returns k existing edges stratified by endpoint degree: the
// lower half of the edges by endpoint-degree sum is cut into k equal
// strata and one edge is drawn from each. How many cached rows a reweight
// invalidates or repairs grows steeply with its endpoints' degrees, so
// with hub edges in the draw the write cost of a run would depend on which
// hubs the seed happened to pick; in a five-seed trial that moved
// ops_per_s by 10-15% against 4% without them.
func pickToggles(rng *rand.Rand, in *input, k int) [][2]int32 {
	deg := make([]int, in.n)
	for _, e := range in.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	sorted := append([][2]int32(nil), in.edges...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		return deg[a[0]]+deg[a[1]] < deg[b[0]]+deg[b[1]]
	})
	sorted = sorted[:len(sorted)/2]
	out := make([][2]int32, k)
	for i := range out {
		lo, hi := i*len(sorted)/k, (i+1)*len(sorted)/k
		out[i] = sorted[lo+rng.Intn(hi-lo)]
	}
	return out
}

// churnWriteEvery makes every 20th op of a connection a POST /edge
// write. A random 5% share put 13 ± 3.6 writes of ~20 ms each in a
// 0.5-second window, which alone moved window throughput by ±7%.
const churnWriteEvery = 20

// answer is one recorded /dist response.
type answer struct {
	u, v int32
	dist int64
	ver  uint64
}

// writeRec is one committed /edge write: the version it published and
// the edge's new weight.
type writeRec struct {
	ver  uint64
	edge [2]int32
	w    int64
}

// routed is serve-hot's router-hop deployment: an in-process
// cluster.Router in front of the serve-hot server and a second warm shard.
type routed struct {
	shard  *daemon // the second shard; the first is serve-hot's own server
	router *cluster.Router
	hs     *http.Server
	base   string
	done   chan error
}

// setupRouter starts a second shard warm on the hot set and a router with
// default hedging in front of it and s0.
func (r *run) setupRouter(in *input, s0 *daemon, hot []int32) (_ *routed, err error) {
	root := r.tr.newID()
	c := &routed{done: make(chan error, 1)}
	if c.shard, err = r.setupServer(in, serve.Config{Workers: solveWorkers, ShardID: "s1"}, hot, root); err != nil {
		return nil, err
	}
	shards := []cluster.Shard{
		{ID: "s0", Addr: strings.TrimPrefix(s0.base, "http://")},
		{ID: "s1", Addr: strings.TrimPrefix(c.shard.base, "http://")},
	}
	if c.router, err = cluster.New(cluster.Config{Shards: shards}); err != nil {
		_ = c.shard.stop() // the set-up error is the one to report
		return nil, err
	}
	c.router.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.router.Close()
		_ = c.shard.stop() // the listen error is the one to report
		return nil, err
	}
	c.base = "http://" + ln.Addr().String()
	c.hs = &http.Server{Handler: r.wrap("cluster.handler", c.router.Handler())}
	go func() { c.done <- c.hs.Serve(ln) }()
	return c, nil
}

// stop shuts the router and then the second shard down, waiting for each.
func (c *routed) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.hs.Shutdown(ctx)
	if serr := <-c.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	c.router.Close()
	if serr := c.shard.stop(); err == nil {
		err = serr
	}
	return err
}

// routerHop is the second phase of a traced serve-hot run: the same
// traffic through the router, in windows interleaved with traffic sent
// straight to s0, for the run's measured seconds. It prices the router
// hop and checks the router's and both shards' ledgers.
func (r *run) routerHop(in *input, s0 *daemon, hot []int32, truth [][]int32) error {
	c, err := r.setupRouter(in, s0, hot)
	if err != nil {
		return err
	}
	bases := []string{c.base, s0.base, c.shard.base}
	before := make([]map[string]int64, len(bases))
	for i, b := range bases {
		if before[i], err = scrape(b); err != nil {
			_ = c.stop() // the scrape error is the one to report
			return err
		}
	}
	modes := []mode{{name: "routed", base: c.base}, {name: "routed-traced", base: c.base, traced: true},
		{name: "direct", base: s0.base}}
	cs := newConns(r.seed + 1)
	stats := r.loop(cs, modes, hotOp(hot, truth), r.seconds)
	closeConns(cs)
	after := make([]map[string]int64, len(bases))
	for i, b := range bases {
		if after[i], err = scrape(b); err != nil {
			_ = c.stop() // the scrape error is the one to report
			return err
		}
	}
	// Hedge losers settle asynchronously after the client has its answer;
	// give the router's attempt ledger a moment to balance.
	for i := 0; i < 20 && !routedBalanced(after[0]); i++ {
		time.Sleep(100 * time.Millisecond)
		if after[0], err = scrape(c.base); err != nil {
			_ = c.stop() // the scrape error is the one to report
			return err
		}
	}
	checkAdmitLedger(r, "router", after[0])
	if !routedBalanced(after[0]) {
		r.problem("router: cluster.routed %d != merged %d + hedge_cancelled %d + failed %d", after[0]["cluster.routed"],
			after[0]["cluster.merged"], after[0]["cluster.hedge_cancelled"], after[0]["cluster.failed"])
	}
	for i, name := range []string{"shard s0", "shard s1"} {
		checkServeLedgers(r, name, after[i+1])
		checkHotBypass(r, name, before[i+1], after[i+1])
	}
	routedOps := stats[0].ops + stats[1].ops
	rd := delta(before[0], after[0])
	r.layer("cluster.hedges_per_op", frac(rd["cluster.hedges"], routedOps))
	r.layer("cluster.retries_per_op", frac(rd["cluster.retries"], routedOps))
	r.layer("admit.rejected", r.layers["admit.rejected"]+float64(rejected(rd)))
	r.layer("cluster.hop_us", (median(stats[0].lat)-median(stats[2].lat))/1e3)
	r.layer("cluster.handler_us", median(r.tr.durations("cluster.handler"))/1e3)
	return c.stop()
}

// timedSetup runs one set-up under a root "setup" span.
func timedSetup[T any](r *run, fn func(root int64) (T, error)) (T, error) {
	root := r.tr.newID()
	start := time.Now()
	v, err := fn(root)
	r.tr.record("setup", start, time.Now(), root, 0, root, setupLane)
	return v, err
}

// endToEnd records the end-to-end metrics of an untraced run: the
// program's throughput and p50 latency relative to the reference's, over
// their interleaved windows.
func (r *run) endToEnd(prog, ref *modeStats) {
	r.metric("rel_ops_per_s", prog.opsPerSec()/ref.opsPerSec())
	r.metric("rel_p50", median(prog.lat)/median(ref.lat))
	info("program %.1f ops/s p50 %.2f us; reference %.1f ops/s p50 %.2f us",
		prog.opsPerSec(), median(prog.lat)/1e3, ref.opsPerSec(), median(ref.lat)/1e3)
}

// setupLayers reports the set-up spans split by layer, plus a standalone
// oracle.Build on the workload graph.
func (r *run) setupLayers(in *input) {
	r.layer("gio.load_ms", r.medianMs("gio.Load"))
	r.layer("serve.new_ms", r.medianMs("serve.New"))
	r.layer("serve.warm_ms", r.medianMs("serve.warm"))
	g, err := loadGraph(in.path, in.n)
	if err != nil {
		r.problem("reload: %v", err)
		return
	}
	var ds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := oracle.Build(g, oracle.Options{Landmarks: 16, Workers: solveWorkers}); err != nil {
			r.problem("oracle.Build: %v", err)
			return
		}
		ds = append(ds, float64(time.Since(start)))
	}
	r.layer("oracle.build_ms", median(ds)/1e6)
}

// clientLayers reports the untraced mode's tail, runtime cost and the
// tracing overhead against the traced mode.
func (r *run) clientLayers(untraced, traced *modeStats) {
	r.layer("client.ops_per_s", untraced.opsPerSec())
	r.layer("client.p50_us", median(untraced.lat)/1e3)
	r.layer("client.p90_us", quantile(untraced.lat, 0.9)/1e3)
	r.layer("client.p99_us", quantile(untraced.lat, 0.99)/1e3)
	r.layer("client.samples", float64(untraced.samples))
	untraced.g.report(r, untraced.ops)
	r.layer("trace.overhead_frac", 1-traced.opsPerSec()/untraced.opsPerSec())
	r.layer("trace.spans", float64(r.tr.count()))
}

// delta returns after - before for every counter.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func rejected(m map[string]int64) int64 {
	return m["admit.rejected_quota"] + m["admit.rejected_inflight"] + m["admit.rejected_draining"]
}

// counterLayers reports the per-layer metrics read from the program's own
// counters, as deltas over the measured phase.
func (r *run) counterLayers(d map[string]int64, ops int64) {
	lookups := d["serve.store.lookups"]
	r.layer("admit.requests_per_op", frac(d["admit.requests"], ops))
	r.layer("admit.rejected", float64(rejected(d)))
	r.layer("store.lookups_per_op", frac(lookups, ops))
	r.layer("store.t1_hit_frac", frac(d["serve.store.t1_hits"], lookups))
	r.layer("store.t2_frac", frac(d["serve.store.t2_promotes"], lookups))
	r.layer("store.t3_frac", frac(d["serve.store.t3_promotes"], lookups))
	r.layer("store.miss_frac", frac(d["serve.store.misses"], lookups))
	for _, t := range []struct{ layer, counter string }{
		{"store.t2_promote_us", "serve.store.t2_promote"},
		{"store.t3_promote_us", "serve.store.t3_promote"},
		{"store.demote_us", "serve.store.demote"},
	} {
		r.layer(t.layer, frac(d[t.counter+".sum_ns"], d[t.counter+".count"])/1e3)
	}
	r.layer("core.solves_measured", float64(d["serve.solve.batches"]))
	r.layer("core.subset_rows_per_op", frac(d["serve.solve.rows"], ops))
	scanned := d["serve.dyn.scanned"]
	r.layer("dyn.retagged_frac", frac(d["serve.dyn.retagged"], scanned))
	r.layer("dyn.repaired_frac", frac(d["serve.dyn.repaired"], scanned))
	r.layer("dyn.invalidated_frac", frac(d["serve.dyn.invalidated"], scanned))
	storeScanned := d["serve.store.dyn.scanned"]
	r.layer("store.dyn_retagged_frac", frac(d["serve.store.dyn.retagged"], storeScanned))
	r.layer("store.dyn_dropped_frac", frac(d["serve.store.dyn.dropped"], storeScanned))
}

// checkAdmitLedger checks the admission ledger of one registry.
func checkAdmitLedger(r *run, who string, m map[string]int64) {
	if got, want := m["admit.requests"], m["admit.admitted"]+rejected(m); got != want {
		r.problem("%s: admit.requests %d != admitted + rejected %d", who, got, want)
	}
	if got, want := m["admit.admitted"], m["admit.completed"]+m["admit.deadline_expired"]; got != want {
		r.problem("%s: admit.admitted %d != completed + deadline_expired %d", who, got, want)
	}
	if n := rejected(m); n != 0 {
		r.problem("%s: %d admission rejections", who, n)
	}
}

// checkServeLedgers checks a server's admission, store and dyn ledgers.
func checkServeLedgers(r *run, who string, m map[string]int64) {
	checkAdmitLedger(r, who, m)
	if got, want := m["serve.store.lookups"], m["serve.store.sketch_answered"]+m["serve.store.t1_hits"]+
		m["serve.store.t2_promotes"]+m["serve.store.t3_promotes"]+m["serve.store.misses"]; got != want {
		r.problem("%s: serve.store.lookups %d != sketch + t1 + t2 + t3 + misses %d", who, got, want)
	}
	if got, want := m["serve.dyn.scanned"], m["serve.dyn.retagged"]+m["serve.dyn.repaired"]+m["serve.dyn.invalidated"]; got != want {
		r.problem("%s: serve.dyn.scanned %d != retagged + repaired + invalidated %d", who, got, want)
	}
}

func routedBalanced(m map[string]int64) bool {
	return m["cluster.routed"] == m["cluster.merged"]+m["cluster.hedge_cancelled"]+m["cluster.failed"]
}

// checkHotBypass checks that a hot workload measured what it claims:
// every lookup of the phase was a T1 hit and no solve ran.
func checkHotBypass(r *run, who string, before, after map[string]int64) {
	d := delta(before, after)
	if d["serve.store.t1_hits"] != d["serve.store.lookups"] || d["serve.solve.batches"] != 0 {
		r.problem("%s: hot phase left T1: %d of %d lookups hit, %d solves", who,
			d["serve.store.t1_hits"], d["serve.store.lookups"], d["serve.solve.batches"])
	}
}

// checkAnswers checks every recorded /dist answer against the
// benchmark's own shortest paths on the graph at the answer's version,
// rebuilt by replaying the write log. Each wrong answer is a failed op.
func checkAnswers(r *run, in *input, cs []*conn, writes []writeRec) {
	var all []answer
	for _, c := range cs {
		all = append(all, c.answers...)
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].ver < writes[j].ver })
	for i, w := range writes {
		if w.ver != uint64(i+2) {
			r.problem("write log has version %d at position %d: a write is missing", w.ver, i)
			r.failed += int64(len(all))
			return
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ver != all[j].ver {
			return all[i].ver < all[j].ver
		}
		return all[i].u < all[j].u
	})
	ref := newRefGraph(in.n, in.edges)
	applied := 0
	var truth []int64
	for i, a := range all {
		if i == 0 || a.ver != all[i-1].ver || a.u != all[i-1].u {
			for applied < len(writes) && writes[applied].ver <= a.ver {
				w := writes[applied]
				ref.setWeight(w.edge[0], w.edge[1], uint32(w.w))
				applied++
			}
			truth = ref.distances(a.u)
		}
		if truth[a.v] != a.dist {
			r.failed++
			if r.failed <= 5 {
				r.problem("dist(%d,%d) at version %d: got %d, want %d", a.u, a.v, a.ver, a.dist, truth[a.v])
			}
		}
	}
	info("checked %d answers against BFS/Dijkstra over %d writes", len(all), len(writes))
}

// inprocCosts measures serve.ParseDistQuery (with the query-string parse
// the handler does before it) and Server.BatchPinned in-process on
// queries drawn like the run's own; both are means per call in µs.
func inprocCosts(s *serve.Server, hot []int32, n int, seed int64) (parse, inproc float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]serve.Query, 20000)
	for i := range qs {
		qs[i] = serve.Query{U: hot[rng.Intn(len(hot))], V: int32(rng.Intn(n))}
	}
	raws := make([]string, len(qs))
	for i, q := range qs {
		raws[i] = "u=" + strconv.Itoa(int(q.U)) + "&v=" + strconv.Itoa(int(q.V))
	}
	var parses, inprocs []float64
	ctx := context.Background()
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, raw := range raws {
			vals, err := url.ParseQuery(raw)
			if err != nil {
				return 0, 0, err
			}
			if _, _, _, err := serve.ParseDistQuery(vals, n); err != nil {
				return 0, 0, err
			}
		}
		parses = append(parses, float64(time.Since(start))/float64(len(raws)))
		start = time.Now()
		for _, q := range qs {
			if _, _, _, err := s.BatchPinned(ctx, []serve.Query{q}, 0); err != nil {
				return 0, 0, err
			}
		}
		inprocs = append(inprocs, float64(time.Since(start))/float64(len(qs)))
	}
	return median(parses) / 1e3, median(inprocs) / 1e3, nil
}

// admitCost measures one Admit plus release on a standalone
// admit.Admitter with the server's default admission config, in µs.
func admitCost() (float64, error) {
	a := admit.New(admit.Config{MaxInflight: 64, RequestTimeout: 30 * time.Second})
	req := admit.Request{Client: "c0", Tier: admit.BestEffort}
	const calls = 200000
	var per []float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			release, err := a.Admit(req)
			if err != nil {
				return 0, err
			}
			release(nil)
		}
		per = append(per, float64(time.Since(start))/calls)
	}
	return median(per) / 1e3, nil
}

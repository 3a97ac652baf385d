package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parapsp/internal/admit"
	"parapsp/internal/graph"
	"parapsp/internal/serve"
)

// versionHeader is the graph version every parapspd response carries.
const versionHeader = "X-Parapsp-Graph-Version"

// daemon is one in-process parapspd: a serve.Server behind its HTTP
// handler on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
	once sync.Once
	err  error
}

// setupServer is one serve set-up step: load the edge list, build the
// server (oracle included), listen, and warm the given sources' rows with
// POST /batch. Each step is a span under root.
func (r *run) setupServer(in *input, cfg serve.Config, warm []int32, root int64) (*daemon, error) {
	var g *graph.Graph
	if err := r.setupSpan("gio.Load", root, func() (err error) {
		g, err = loadGraph(in.path, in.n)
		return err
	}); err != nil {
		return nil, err
	}
	var s *serve.Server
	if err := r.setupSpan("serve.New", root, func() (err error) {
		s, err = serve.New(g, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: s, hs: &http.Server{Handler: r.wrap("serve.handler", s.Handler())},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	if err := r.setupSpan("serve.warm", root, func() error { return warmRows(d.base, warm) }); err != nil {
		_ = d.stop() // the warm error is the one to report
		return nil, err
	}
	return d, nil
}

// stop shuts the HTTP server and then the serve.Server down, waiting for
// both; it is safe to call more than once.
func (d *daemon) stop() error {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.err = d.hs.Shutdown(ctx)
		if err := d.srv.Shutdown(ctx); d.err == nil {
			d.err = err
		}
		if err := <-d.done; !errors.Is(err, http.ErrServerClosed) && d.err == nil {
			d.err = err
		}
	})
	return d.err
}

// warmRows makes every source's row resident by asking one distance per
// source through POST /batch, warmBatch queries per request.
func warmRows(base string, sources []int32) error {
	c := newConn(0, 0)
	defer c.close()
	for len(sources) > 0 {
		k := min(len(sources), warmBatch)
		var b strings.Builder
		b.WriteString(`{"queries":[`)
		for i, s := range sources[:k] {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"u":%d,"v":0}`, s)
		}
		b.WriteString(`]}`)
		status, _, body, err := c.do(http.MethodPost, base+"/batch", []byte(b.String()), 0)
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm: POST /batch: status %d: %s", status, body)
		}
		sources = sources[k:]
	}
	return nil
}

// warmBatch is the number of sources warmed per POST /batch. Each batch
// is one subset solve holding a row per source; at 256 sources (the
// default MaxBatch) that transient was ~20 MiB on serve-churn, and
// whether the collector ran before or after it moved peak RSS by ±5%.
const warmBatch = 32

// scrape reads a daemon's or router's /metrics registry.
func scrape(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	m := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return m, nil
}

// wrap records a span named name around every traced request the handler
// serves. A traced request carries its connection and request id in the
// client header ("c<conn>.r<req>"), which the router forwards to shards.
func (r *run) wrap(name string, h http.Handler) http.Handler {
	if r.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		conn, id := parseClient(req.Header.Get(admit.ClientHeader))
		if id == 0 {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.tr.record(name, start, time.Now(), 0, id, id, conn)
	})
}

func clientID(conn int, req int64) string {
	if req == 0 {
		return "c" + strconv.Itoa(conn)
	}
	return "c" + strconv.Itoa(conn) + ".r" + strconv.FormatInt(req, 10)
}

func parseClient(s string) (conn int, req int64) {
	c, r, ok := strings.Cut(strings.TrimPrefix(s, "c"), ".r")
	if !ok {
		return 0, 0
	}
	conn, _ = strconv.Atoi(c)
	req, _ = strconv.ParseInt(r, 10, 64)
	return conn, req
}

// conn is one closed-loop client on its own keep-alive connection.
type conn struct {
	id      int
	hc      *http.Client
	rng     *rand.Rand
	buf     bytes.Buffer
	answers []answer   // serve-churn: reads to check after the run
	log     []writeRec // serve-churn: committed writes
	// serve-churn, per side (the program, the reference): ops sent, which
	// time the writes; writes sent, which pick the next edge; the source
	// of the last read and the toggled edge of the last write.
	ops, writes [2]int
	lastSrc     [2]int32
	lastIdx     [2]int
}

func newConn(id int, seed int64) *conn {
	return &conn{id: id, rng: rand.New(rand.NewSource(seed*1000 + int64(id))),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, the graph version header
// and the body (valid until the next call).
func (c *conn) do(method, url string, body []byte, req int64) (int, uint64, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, nil, err
	}
	hreq.Header.Set(admit.ClientHeader, clientID(c.id, req))
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, 0, nil, err
	}
	ver, _ := strconv.ParseUint(resp.Header.Get(versionHeader), 10, 64) // 0 when absent, checked by callers
	return resp.StatusCode, ver, c.buf.Bytes(), nil
}

// dist asks GET /dist and returns the exact distance (-1 when
// unreachable) and the graph version it was computed at.
func (c *conn) dist(base string, u, v int32, req int64) (int64, uint64, error) {
	status, ver, body, err := c.do(http.MethodGet,
		base+"/dist?u="+strconv.Itoa(int(u))+"&v="+strconv.Itoa(int(v)), nil, req)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /dist: status %d: %s", status, body)
	}
	var a struct {
		Dist  int64 `json:"dist"`
		Exact bool  `json:"exact"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, 0, fmt.Errorf("GET /dist: %w", err)
	}
	if !a.Exact || ver == 0 {
		return 0, 0, fmt.Errorf("GET /dist: exact=%v version=%d", a.Exact, ver)
	}
	return a.Dist, ver, nil
}

// reservoir keeps a uniform sample of at most its capacity of values, in
// memory allocated and touched up front: a client whose memory grew with
// the program's throughput would leak that throughput into rss_mb.
type reservoir struct {
	buf  []float32
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	buf := make([]float32, capacity)
	for i := range buf {
		buf[i] = -1 // touch every page now, not while measuring
	}
	return &reservoir{buf: buf[:0], rng: rand.New(rand.NewSource(seed))}
}

// add keeps x, a latency in ns; float32 holds it to 7 digits.
func (s *reservoir) add(x float64) {
	s.seen++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, float32(x))
	} else if j := s.rng.Int63n(s.seen); j < int64(len(s.buf)) {
		s.buf[j] = float32(x)
	}
}

func (s *reservoir) values() []float64 {
	out := make([]float64, len(s.buf))
	for i, x := range s.buf {
		out[i] = float64(x)
	}
	return out
}

// Reservoir capacities per mode, split across the connections: 2^18
// latencies keep every one of a 30-second run split over two modes up to
// 17k ops/s; past that the reservoir keeps a uniform sample.
const (
	latSamples   = 1 << 18
	writeSamples = 1 << 13
)

// mode is what the closed loop does in one window: which endpoint it
// targets, whether that is the workload's reference implementation, and
// whether its requests are traced.
type mode struct {
	name   string
	base   string
	ref    bool
	traced bool
}

// modeStats is everything measured in the windows of one mode.
type modeStats struct {
	dur     time.Duration
	ops     int64
	lat     []float64 // successful ops, ns (a uniform sample past latSamples)
	wlat    []float64 // the writes among them, ns
	samples int64     // successful ops, all of them
	perSec  []float64 // ops/s of each window
	g       goAcc
}

func (ms *modeStats) opsPerSec() float64 {
	if ms.dur <= 0 {
		return 0
	}
	return float64(ms.ops) / ms.dur.Seconds()
}

// maxWindow is the length of one measured window, shorter only when a
// short run needs it to give every mode two windows. A run cycles its
// modes (program and reference, or untraced and traced) window by window,
// so every mode sees the same host drift; every run reads the
// per-window drift from its windows.
const maxWindow = 500 * time.Millisecond

// opFunc performs one operation for conn c in mode m; req is the request
// id when traced, else 0. It reports whether the op was a write.
type opFunc func(c *conn, m *mode, req int64) (write bool, err error)

// loop drives the connections closed-loop for the given measured time,
// cycling through modes window by window, and returns per-mode stats.
// Failed ops are counted against the run.
func (r *run) loop(cs []*conn, modes []mode, op opFunc, seconds time.Duration) []*modeStats {
	type local struct {
		lat, wlat []*reservoir
		fails     int64
		firstErr  error
	}
	var (
		cur    atomic.Int32
		stop   atomic.Bool
		counts = make([]atomic.Int64, len(modes))
		wg     sync.WaitGroup
		locals = make([]*local, len(cs))
	)
	// Start the phase from a collected heap with freed pages returned, so
	// the peak resident set it reaches does not depend on the garbage the
	// set-ups happened to leave.
	debug.FreeOSMemory()
	for i, c := range cs {
		l := &local{}
		for mi := range modes {
			seed := r.seed + int64(100*i+mi)
			l.lat = append(l.lat, newReservoir(latSamples/len(cs), seed))
			l.wlat = append(l.wlat, newReservoir(writeSamples/len(cs), seed))
		}
		locals[i] = l
		wg.Add(1)
		go func(c *conn, l *local) {
			defer wg.Done()
			for !stop.Load() {
				mi := int(cur.Load())
				m := &modes[mi]
				var req int64
				if m.traced {
					req = r.tr.newID()
				}
				start := time.Now()
				write, err := op(c, m, req)
				end := time.Now()
				if err != nil {
					l.fails++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				name := "client.dist"
				if write {
					name = "client.edge"
					l.wlat[mi].add(float64(end.Sub(start)))
				}
				if req != 0 {
					r.tr.record(name, start, end, req, 0, req, c.id)
				}
				l.lat[mi].add(float64(end.Sub(start)))
				counts[mi].Add(1)
			}
		}(c, l)
	}

	stats := make([]*modeStats, len(modes))
	for i := range stats {
		stats[i] = &modeStats{}
	}
	window := min(maxWindow, seconds/time.Duration(2*len(modes)))
	deadline := time.Now().Add(seconds)
	for w := 0; ; w++ {
		start := time.Now()
		if !start.Before(deadline) {
			break
		}
		mi := w % len(modes)
		cur.Store(int32(mi))
		c0, s0 := counts[mi].Load(), takeGoSnap()
		end := start.Add(window)
		if end.After(deadline) {
			end = deadline
		}
		time.Sleep(time.Until(end))
		c1, s1 := counts[mi].Load(), takeGoSnap()
		d := time.Since(start)
		st := stats[mi]
		st.dur += d
		st.ops += c1 - c0
		st.perSec = append(st.perSec, float64(c1-c0)/d.Seconds())
		st.g.add(s0, s1)
	}
	stop.Store(true)
	wg.Wait()
	r.notePeakRSS()
	for _, l := range locals {
		for mi := range modes {
			stats[mi].lat = append(stats[mi].lat, l.lat[mi].values()...)
			stats[mi].wlat = append(stats[mi].wlat, l.wlat[mi].values()...)
			stats[mi].samples += l.lat[mi].seen
			r.attempted += l.lat[mi].seen
		}
		r.attempted += l.fails
		r.failed += l.fails
		if l.firstErr != nil {
			r.problem("%d failed ops, first: %v", l.fails, l.firstErr)
		}
	}
	for i, st := range stats {
		ps := append([]float64(nil), st.perSec...)
		info("%s: %.1f ops/s over %d windows; per-window min %.1f median %.1f max %.1f",
			modes[i].name, st.opsPerSec(), len(ps), quantile(ps, 0), median(ps), quantile(ps, 1))
	}
	return stats
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"parapsp/internal/matrix"
)

// The references are the benchmark's own naive implementations of each
// workload's operation. An untraced run interleaves windows of the
// program with windows of its reference, on the same client connections
// and the same host, and the gated end-to-end metrics are the program's
// throughput and p50 latency relative to the reference's. The host drifts
// by up to 30% over minutes (see README.md, noise record); the reference
// drifts with it, the program's code does not touch it, so the ratio keeps
// the program's changes and drops most of the host's.

// refDaemon is a reference implementation's HTTP server on a loopback
// listener.
type refDaemon struct {
	hs   *http.Server
	base string
	done chan error
}

func startRef(h http.Handler) (*refDaemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &refDaemon{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it.
func (d *refDaemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// writeDist writes a /dist answer the way parapspd does: JSON body and
// the graph version header.
func writeDist(w http.ResponseWriter, u, v int, d int64, ver uint64) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(versionHeader, strconv.FormatUint(ver, 10))
	fmt.Fprintf(w, `{"u":%d,"v":%d,"dist":%d,"exact":true,"version":%d}`+"\n", u, v, d, ver)
}

func distQuery(req *http.Request) (u, v int, err error) {
	q := req.URL.Query()
	if u, err = strconv.Atoi(q.Get("u")); err != nil {
		return 0, 0, err
	}
	v, err = strconv.Atoi(q.Get("v"))
	return u, v, err
}

// hotRef is serve-hot's reference: a bare net/http server answering
// GET /dist from the hot sources' precomputed rows. It has the program's
// transport and nothing else, so it moves with the host's syscall and
// wake-up costs, which dominate a hot request.
func hotRef(hot []int32, truth [][]int32) http.Handler {
	row := make(map[int32][]int32, len(hot))
	for i, s := range hot {
		row[s] = truth[i]
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		u, v, err := distQuery(req)
		r, ok := row[int32(u)]
		if err != nil || !ok || v < 0 || v >= len(r) {
			http.Error(w, "bad query", http.StatusBadRequest)
			return
		}
		writeDist(w, u, v, int64(r[v]), 1)
	})
}

// churnRef is serve-churn's reference: a server with no cache that
// answers every GET /dist with a fresh single-source search on its own
// copy of the graph and applies every POST /edge reweight to that copy
// under a lock, so its cost is the same kind of graph search and HTTP as
// the program's misses and writes.
func churnRef(in *input) http.Handler {
	var (
		mu  sync.RWMutex
		g   = newRefGraph(in.n, in.edges)
		ver = uint64(1)
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist", func(w http.ResponseWriter, req *http.Request) {
		u, v, err := distQuery(req)
		if err != nil || u < 0 || u >= in.n || v < 0 || v >= in.n {
			http.Error(w, "bad query", http.StatusBadRequest)
			return
		}
		mu.RLock()
		d, at := g.distances(int32(u))[v], ver
		mu.RUnlock()
		writeDist(w, u, v, d, at)
	})
	mux.HandleFunc("POST /edge", func(w http.ResponseWriter, req *http.Request) {
		var e struct{ U, V, W int64 }
		if err := json.NewDecoder(req.Body).Decode(&e); err != nil || e.W < 1 {
			http.Error(w, "bad edge", http.StatusBadRequest)
			return
		}
		mu.Lock()
		g.setWeight(int32(e.U), int32(e.V), uint32(e.W))
		ver++
		at := ver
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(versionHeader, strconv.FormatUint(at, 10))
		fmt.Fprintf(w, `{"version":%d}`+"\n", at)
	})
	return mux
}

// naiveStride and naiveFolds size apsp-solve's reference. A breadth-first
// search from one vertex in naiveStride, each followed by naiveFolds
// min-plus folds of other rows into its row, makes about as many row
// folds as a ParAPSP solve and takes about two thirds of its time. With
// searches alone, which stay in cache, the reference missed the
// memory-bandwidth part of the host's drift and the ratio spread 0.1
// over ten seeds; with the folds, 0.02-0.04.
const (
	naiveStride = 8
	naiveFolds  = 30
)

// naiveAPSP is apsp-solve's reference: searches and folds, as above, over
// solveWorkers goroutines, writing into the rows of d, whose contents it
// overwrites. Its output is not used.
func naiveAPSP(g *refGraph, d *matrix.Matrix) {
	var wg sync.WaitGroup
	for w := 0; w < solveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queue := make([]int32, g.n())
			for s := w * naiveStride; s < g.n(); s += solveWorkers * naiveStride {
				row := d.Row(s)
				for i := range row {
					row[i] = matrix.Inf
				}
				row[s] = 0
				queue[0] = int32(s)
				for head, tail := 0, 1; head < tail; head++ {
					u := queue[head]
					for i := g.off[u]; i < g.off[u+1]; i++ {
						if v := g.adj[i]; row[v] == matrix.Inf {
							row[v] = row[u] + 1
							queue[tail] = v
							tail++
						}
					}
				}
				for f := 1; f <= naiveFolds; f++ {
					// Fold only rows no search writes (indices that are
					// not multiples of naiveStride), so the workers never
					// share a row.
					j := (s + f*977) % g.n()
					if j%naiveStride == 0 {
						j = max(j-1, 1)
					}
					for i, x := range d.Row(j) {
						if x != matrix.Inf && x+1 < row[i] {
							row[i] = x + 1
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"parapsp/internal/gio"
	"parapsp/internal/graph"
)

// powerLaw returns the undirected edge list of a configuration-model graph
// whose degree sequence follows a discrete power law with exponent gamma
// and minimum degree minDeg — the paper's unweighted complex-network
// setting. The degree sequence is stratified (vertex i takes the power-law
// quantile (i+0.5)/n instead of a random draw), so the seed changes the
// wiring and the vertex labels but not the degree sequence; without that,
// the heavy tail alone moves a solve by ~25% from seed to seed, more than
// host noise. Self-loops and repeated pairs from the stub matching are
// dropped, and vertices are numbered in order of first appearance with
// isolated ones removed, so ids match what gio assigns when loading the
// written file. It returns the edges and the vertex count.
func powerLaw(n int, gamma float64, minDeg int, seed int64) ([][2]int32, int) {
	rng := rand.New(rand.NewSource(seed))
	var stubs []int32
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		deg := int(float64(minDeg) * math.Pow(q, -1/(gamma-1)))
		if deg > n-1 {
			deg = n - 1
		}
		for k := 0; k < deg; k++ {
			stubs = append(stubs, int32(i))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	id := make([]int32, n)
	for i := range id {
		id[i] = -1
	}
	next := int32(0)
	label := func(v int32) int32 {
		if id[v] < 0 {
			id[v] = next
			next++
		}
		return id[v]
	}
	seen := make(map[uint64]bool, len(stubs)/2)
	edges := make([][2]int32, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(a)<<32 | uint64(b)
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, [2]int32{label(u), label(v)})
	}
	return edges, int(next)
}

// writeEdgeList writes edges as a whitespace-separated "u v" edge list.
func writeEdgeList(dir string, edges [][2]int32) (string, error) {
	path := filepath.Join(dir, "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// loadGraph reads the workload's edge list through gio.Load, the program's
// own entry point, and checks that it assigned the benchmark's vertex ids.
func loadGraph(path string, n int) (*graph.Graph, error) {
	res, err := gio.Load(path, "edgelist", gio.Options{Undirected: true})
	if err != nil {
		return nil, err
	}
	if res.Graph.N() != n {
		return nil, fmt.Errorf("loaded %d vertices, generated %d", res.Graph.N(), n)
	}
	for i, l := range res.Labels {
		if l != int64(i) {
			return nil, fmt.Errorf("vertex %d loaded with label %d", i, l)
		}
	}
	return res.Graph, nil
}

// refGraph is the benchmark's own adjacency of the generated graph, used
// to check the program's answers independently of its code. Weights start
// at 1; setWeight changes an undirected edge in both directions, mirroring
// a POST /edge reweight.
type refGraph struct {
	off []int32
	adj []int32
	w   []uint32
}

func newRefGraph(n int, edges [][2]int32) *refGraph {
	g := &refGraph{off: make([]int32, n+1)}
	for _, e := range edges {
		g.off[e[0]+1]++
		g.off[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.adj = make([]int32, 2*len(edges))
	g.w = make([]uint32, 2*len(edges))
	fill := append([]int32(nil), g.off[:n]...)
	for _, e := range edges {
		g.adj[fill[e[0]]], g.w[fill[e[0]]] = e[1], 1
		fill[e[0]]++
		g.adj[fill[e[1]]], g.w[fill[e[1]]] = e[0], 1
		fill[e[1]]++
	}
	return g
}

func (g *refGraph) n() int { return len(g.off) - 1 }

func (g *refGraph) setWeight(u, v int32, w uint32) {
	for _, a := range [2][2]int32{{u, v}, {v, u}} {
		for i := g.off[a[0]]; i < g.off[a[0]+1]; i++ {
			if g.adj[i] == a[1] {
				g.w[i] = w
			}
		}
	}
}

// unreachable is the reference distance of a vertex no path reaches; the
// HTTP API reports it as -1.
const unreachable = -1

// distances returns single-source shortest-path distances from s by
// Dial's bucket queue, which suits the benchmark's small integer weights
// (1 before any write, 1 or 2 after): O(n + m + maxW) per call.
func (g *refGraph) distances(s int32) []int64 {
	maxW := uint32(1)
	for _, w := range g.w {
		maxW = max(maxW, w)
	}
	d := make([]int64, g.n())
	for i := range d {
		d[i] = unreachable
	}
	d[s] = 0
	buckets := make([][]int32, maxW+1)
	buckets[0] = append(buckets[0], s)
	pending := 1
	for cur := int64(0); pending > 0; cur++ {
		b := &buckets[cur%int64(len(buckets))]
		for len(*b) > 0 {
			u := (*b)[len(*b)-1]
			*b = (*b)[:len(*b)-1]
			pending--
			if d[u] != cur {
				continue // a stale entry; u was settled at a smaller distance
			}
			for i := g.off[u]; i < g.off[u+1]; i++ {
				v, nd := g.adj[i], cur+int64(g.w[i])
				if d[v] == unreachable || nd < d[v] {
					d[v] = nd
					nb := &buckets[nd%int64(len(buckets))]
					*nb = append(*nb, v)
					pending++
				}
			}
		}
	}
	return d
}

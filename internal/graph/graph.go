// Package graph implements the directed weighted graph substrate used for
// social networks, trust overlays and feedback graphs throughout the
// reproduction: adjacency storage, classic random-graph generators
// (Erdős–Rényi, Barabási–Albert, Watts–Strogatz) and structural metrics.
package graph

import (
	"fmt"
	"slices"

	"repro/internal/linalg"
	"repro/internal/sim"
)

// Edge is a weighted directed edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a directed weighted multigraph-free graph over nodes 0..N-1.
// Adding an edge that already exists overwrites its weight. Out- and
// in-adjacency are sorted rows (linalg.Rows), so every read returns edges in
// ascending neighbour order without sorting.
type Graph struct {
	out *linalg.Rows[float64]
	in  *linalg.Rows[float64]
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{out: linalg.NewRows[float64](n), in: linalg.NewRows[float64](n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.out.N() }

// AddNode appends a new isolated node and returns its id.
func (g *Graph) AddNode() int {
	g.in.Grow()
	return g.out.Grow()
}

func (g *Graph) valid(v int) bool { return v >= 0 && v < g.N() }

// SetEdge adds or updates the directed edge u->v with weight w.
// It returns an error for out-of-range nodes or self-loops.
func (g *Graph) SetEdge(u, v int, w float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	*g.out.Cell(u, v) = w
	*g.in.Cell(v, u) = w
	return nil
}

// AddEdgeBoth adds edges in both directions with the same weight.
func (g *Graph) AddEdgeBoth(u, v int, w float64) error {
	if err := g.SetEdge(u, v, w); err != nil {
		return err
	}
	return g.SetEdge(v, u, w)
}

// RemoveEdge deletes u->v if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.valid(u) || !g.valid(v) {
		return
	}
	g.out.Delete(u, v)
	g.in.Delete(v, u)
}

// HasEdge reports whether u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Weight returns the weight of u->v and whether the edge exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	return g.out.Get(u, v)
}

// OutDegree returns the out-degree of u (0 if out of range).
func (g *Graph) OutDegree(u int) int {
	if !g.valid(u) {
		return 0
	}
	return g.out.Len(u)
}

// InDegree returns the in-degree of u (0 if out of range).
func (g *Graph) InDegree(u int) int {
	if !g.valid(u) {
		return 0
	}
	return g.in.Len(u)
}

// Out returns u's out-edges sorted by destination (deterministic order).
func (g *Graph) Out(u int) []Edge {
	if !g.valid(u) {
		return nil
	}
	return edges(g.out, u)
}

// In returns u's in-edges sorted by source.
func (g *Graph) In(u int) []Edge {
	if !g.valid(u) {
		return nil
	}
	return edges(g.in, u)
}

func edges(rows *linalg.Rows[float64], u int) []Edge {
	cols, ws := rows.Row(u)
	es := make([]Edge, len(cols))
	for k, v := range cols {
		es[k] = Edge{To: int(v), Weight: ws[k]}
	}
	return es
}

// Neighbors returns the sorted out-neighbor ids of u.
func (g *Graph) Neighbors(u int) []int {
	if !g.valid(u) {
		return []int{}
	}
	cols, _ := g.out.Row(u)
	ids := make([]int, len(cols))
	for k, v := range cols {
		ids[k] = int(v)
	}
	return ids
}

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	total := 0
	for u := 0; u < g.N(); u++ {
		total += g.out.Len(u)
	}
	return total
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	return &Graph{out: g.out.Clone(), in: g.in.Clone()}
}

// ErdosRenyi generates a directed G(n, p) graph (no self-loops).
func ErdosRenyi(rng *sim.RNG, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				_ = g.SetEdge(u, v, 1)
			}
		}
	}
	return g
}

// BarabasiAlbert generates an undirected (symmetric) preferential-attachment
// graph: each new node attaches to m existing nodes with probability
// proportional to their degree. The first m+1 nodes form a clique.
// The result has the heavy-tailed degree distribution typical of social
// networks, which is the graph family the reproduced experiments default to.
func BarabasiAlbert(rng *sim.RNG, n, m int) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+1 {
		n = m + 1
	}
	g := New(n)
	// Repeated-endpoint list implements preferential attachment in O(1).
	var endpoints []int
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			_ = g.AddEdgeBoth(u, v, 1)
			endpoints = append(endpoints, u, v)
		}
	}
	targets := make([]int, 0, m) // selection order: keeps runs deterministic
	for u := m + 1; u < n; u++ {
		targets = targets[:0]
		for len(targets) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != u && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, v := range targets {
			_ = g.AddEdgeBoth(u, v, 1)
			endpoints = append(endpoints, u, v)
		}
	}
	return g
}

// WattsStrogatz generates an undirected small-world graph: a ring lattice
// where each node connects to k nearest neighbors (k rounded down to even),
// then each edge is rewired with probability beta.
func WattsStrogatz(rng *sim.RNG, n, k int, beta float64) *Graph {
	if n < 3 {
		n = 3
	}
	if k < 2 {
		k = 2
	}
	if k >= n {
		k = n - 1
	}
	k -= k % 2
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			_ = g.AddEdgeBoth(u, v, 1)
		}
	}
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if !g.HasEdge(u, v) || !rng.Bool(beta) {
				continue
			}
			// Rewire u--v to u--w for a uniformly random non-neighbor w.
			for tries := 0; tries < 32; tries++ {
				w := rng.Intn(n)
				if w == u || g.HasEdge(u, w) {
					continue
				}
				g.RemoveEdge(u, v)
				g.RemoveEdge(v, u)
				_ = g.AddEdgeBoth(u, w, 1)
				break
			}
		}
	}
	return g
}

// Ring generates an undirected ring of n nodes.
func Ring(n int) *Graph {
	if n < 3 {
		n = 3
	}
	g := New(n)
	for u := 0; u < n; u++ {
		_ = g.AddEdgeBoth(u, (u+1)%n, 1)
	}
	return g
}

// Complete generates the complete directed graph on n nodes.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				_ = g.SetEdge(u, v, 1)
			}
		}
	}
	return g
}

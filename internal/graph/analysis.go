package graph

import "sort"

// DegreeDistribution returns the out-degree histogram: result[d] = number of
// nodes with out-degree d.
func DegreeDistribution(g *Graph) map[int]int {
	dist := make(map[int]int)
	for u := 0; u < g.N(); u++ {
		dist[g.OutDegree(u)]++
	}
	return dist
}

// BFS returns hop distances from src; unreachable nodes get -1.
func BFS(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(u) {
			if dist[e.To] == -1 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// Components returns the weakly connected component id of every node and the
// number of components.
func Components(g *Graph) (ids []int, count int) {
	ids = make([]int, g.N())
	for i := range ids {
		ids[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if ids[s] != -1 {
			continue
		}
		ids[s] = count
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Out(u) {
				if ids[e.To] == -1 {
					ids[e.To] = count
					stack = append(stack, e.To)
				}
			}
			for _, e := range g.In(u) {
				if ids[e.To] == -1 {
					ids[e.To] = count
					stack = append(stack, e.To)
				}
			}
		}
		count++
	}
	return ids, count
}

// ClusteringCoefficient returns the mean local clustering coefficient,
// treating the graph as undirected (an edge in either direction counts).
func ClusteringCoefficient(g *Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	und := func(a, b int) bool { return g.HasEdge(a, b) || g.HasEdge(b, a) }
	total := 0.0
	for u := 0; u < g.N(); u++ {
		// Undirected neighborhood: out-neighbors plus in-only neighbors.
		nbrs := g.Neighbors(u)
		for _, e := range g.In(u) {
			if !g.HasEdge(u, e.To) {
				nbrs = append(nbrs, e.To)
			}
		}
		k := len(nbrs)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if und(nbrs[i], nbrs[j]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
	}
	return total / float64(g.N())
}

// AveragePathLength returns the mean finite BFS distance over sampled source
// nodes (all sources when sample <= 0 or >= N). Unreachable pairs are
// skipped; it returns 0 when no pair is reachable.
func AveragePathLength(g *Graph, sample int) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	step := 1
	if sample > 0 && sample < n {
		step = n / sample
		if step < 1 {
			step = 1
		}
	}
	sum, count := 0.0, 0
	for s := 0; s < n; s += step {
		for _, d := range BFS(g, s) {
			if d > 0 {
				sum += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// TopByInDegree returns the ids of the m nodes with the highest in-degree,
// ties broken by lower id (deterministic). Used by PowerTrust's power-node
// election.
func TopByInDegree(g *Graph, m int) []int {
	type nd struct{ id, deg int }
	nodes := make([]nd, g.N())
	for i := range nodes {
		nodes[i] = nd{i, g.InDegree(i)}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].deg != nodes[j].deg {
			return nodes[i].deg > nodes[j].deg
		}
		return nodes[i].id < nodes[j].id
	})
	if m > len(nodes) {
		m = len(nodes)
	}
	if m < 0 {
		m = 0
	}
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = nodes[i].id
	}
	return out
}

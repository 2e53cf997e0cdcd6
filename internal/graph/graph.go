// Package graph provides the factor graphs from which product networks
// are built, together with the labeling conventions the sorting algorithm
// relies on.
//
// A factor graph G has nodes 0..N-1 and the node labels define the
// ascending order of sorted data (Section 2 of the paper). Constructors
// label nodes along a Hamiltonian path whenever the graph has one, so
// that compare-exchange between label-consecutive nodes is a single-hop
// operation; when no Hamiltonian path exists (e.g. complete binary
// trees), the graph is marked non-Hamiltonian and the sorting algorithm
// falls back to permutation routing within G, exactly as the paper
// prescribes.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected, connected, simple factor graph whose node
// labels 0..N-1 define the sorted order of data. The adjacency is one
// flat array: v's neighbours are nbr[off[v]:off[v+1]], ascending.
type Graph struct {
	name        string
	off         []int // len N+1
	nbr         []int // len 2·edges
	hamiltonian bool  // labels 0,1,…,N-1 trace a Hamiltonian path
}

// New builds a graph from an edge list and validates it: edges must be
// simple (no loops, no duplicates), endpoints in range, and the graph
// connected. The hamiltonian flag is recomputed from the edges rather
// than trusted. When several edges are bad, the error reports the
// check that the first failing edge in list order fails, a duplicate
// failing at its second occurrence; a duplicate error names the
// repeated edge with the smallest endpoint. Validation takes
// O(N + edges) time and a fixed number of allocations.
func New(name string, n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph %s: need at least one node, got %d", name, n)
	}
	// Count degrees up to the first edge out of range or looping; a
	// duplicate before it is still the first error.
	off := make([]int, n+1)
	bad := len(edges)
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n || u == v {
			bad = i
			break
		}
		off[u+1]++
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Scatter each edge into both endpoints' lists, then transpose:
	// visiting u in ascending order and appending u to each neighbour's
	// list leaves every list sorted (a counting sort per list), so a
	// duplicate edge appends u twice in a row. The scratch holds the
	// scattered lists and, at its end, one cursor per node.
	m2 := off[n]
	scratch := make([]int, max(m2, n)+n)
	scatter, next := scratch[:m2], scratch[len(scratch)-n:]
	copy(next, off)
	for _, e := range edges[:bad] {
		u, v := e[0], e[1]
		scatter[next[u]] = v
		next[u]++
		scatter[next[v]] = u
		next[v]++
	}
	nbr := make([]int, m2)
	copy(next, off)
	for u := 0; u < n; u++ {
		for _, v := range scatter[off[u]:off[u+1]] {
			if next[v] > off[v] && nbr[next[v]-1] == u {
				return nil, fmt.Errorf("graph %s: duplicate edge (%d,%d)", name, min(u, v), max(u, v))
			}
			nbr[next[v]] = u
			next[v]++
		}
	}
	if bad < len(edges) {
		u, v := edges[bad][0], edges[bad][1]
		if u == v && u >= 0 && u < n {
			return nil, fmt.Errorf("graph %s: self-loop at %d", name, u)
		}
		return nil, fmt.Errorf("graph %s: edge (%d,%d) out of range [0,%d)", name, u, v, n)
	}
	g := &Graph{name: name, off: off, nbr: nbr}
	if !g.connected(scratch) {
		return nil, fmt.Errorf("graph %s: not connected", name)
	}
	g.hamiltonian = g.labelsTracePath()
	return g, nil
}

// MustNew is New for statically-correct constructions; it panics on error.
func MustNew(name string, n int, edges [][2]int) *Graph {
	g, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// labelsTracePath reports whether consecutive labels i, i+1 are adjacent
// for every i, i.e. the identity labeling follows a Hamiltonian path.
func (g *Graph) labelsTracePath() bool {
	for i := 0; i+1 < g.N(); i++ {
		if !g.HasEdge(i, i+1) {
			return false
		}
	}
	return true
}

// Name returns the graph's descriptive name.
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// Neighbors returns the sorted adjacency list of v. The caller must not
// modify the returned slice.
func (g *Graph) Neighbors(v int) []int { return g.nbr[g.off[v]:g.off[v+1]:g.off[v+1]] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// MaxDegree returns the maximum node degree.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.N(); v++ {
		m = max(m, g.Degree(v))
	}
	return m
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Edges returns every edge once, as (u,v) with u < v, in sorted order.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, len(g.nbr)/2)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// HamiltonianLabeled reports whether node labels 0..N-1 trace a
// Hamiltonian path, so that label-consecutive nodes are adjacent.
func (g *Graph) HamiltonianLabeled() bool { return g.hamiltonian }

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return false
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// connected runs a BFS from node 0 in scratch, at least 2·N ints: its
// first N hold the index-walked queue, its last N the visited marks.
func (g *Graph) connected(scratch []int) bool {
	n := g.N()
	queue, seen := scratch[:1:n], scratch[len(scratch)-n:]
	clear(seen)
	queue[0], seen[0] = 0, 1
	for head := 0; head < len(queue); head++ {
		for _, v := range g.Neighbors(queue[head]) {
			if seen[v] == 0 {
				seen[v] = 1
				queue = append(queue, v)
			}
		}
	}
	return len(queue) == n
}

// BFS returns the distance from src to every node (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v.
func (g *Graph) Dist(u, v int) int { return g.BFS(u)[v] }

// Diameter returns the maximum pairwise distance.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		for _, x := range g.BFS(v) {
			if x > d {
				d = x
			}
		}
	}
	return d
}

// ShortestPath returns one shortest path from u to v inclusive of both
// endpoints.
func (g *Graph) ShortestPath(u, v int) []int {
	prev := make([]int, g.N())
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			break
		}
		for _, y := range g.Neighbors(x) {
			if prev[y] < 0 {
				prev[y] = x
				queue = append(queue, y)
			}
		}
	}
	if prev[v] < 0 {
		return nil
	}
	var rev []int
	for x := v; ; x = prev[x] {
		rev = append(rev, x)
		if x == u {
			break
		}
	}
	path := make([]int, len(rev))
	for i, x := range rev {
		path[len(rev)-1-i] = x
	}
	return path
}

// MaxLabelDilation returns the maximum hop distance between nodes with
// consecutive labels: 1 for Hamiltonian-labeled graphs, larger otherwise.
// It bounds the slowdown of compare-exchange between snake neighbors.
func (g *Graph) MaxLabelDilation() int {
	m := 0
	for i := 0; i+1 < g.N(); i++ {
		if d := g.Dist(i, i+1); d > m {
			m = d
		}
	}
	return m
}

// Relabel returns a copy of g whose node i is old node perm[i]; perm must
// be a permutation of 0..N-1. Used to move a found Hamiltonian path onto
// the identity labeling.
func Relabel(g *Graph, perm []int) (*Graph, error) {
	n := g.N()
	if len(perm) != n {
		return nil, fmt.Errorf("graph %s: relabel permutation has length %d, want %d", g.name, len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for newID, oldID := range perm {
		if oldID < 0 || oldID >= n || inv[oldID] != -1 {
			return nil, fmt.Errorf("graph %s: invalid relabel permutation", g.name)
		}
		inv[oldID] = newID
	}
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{inv[e[0]], inv[e[1]]})
	}
	return New(g.name, n, edges)
}

// FindHamiltonianPath searches for a Hamiltonian path by backtracking and
// returns it as a node sequence, or nil if none exists. Intended for the
// small factor graphs used here (N ≤ ~24); cost is exponential in N.
func (g *Graph) FindHamiltonianPath() []int {
	n := g.N()
	if n == 1 {
		return []int{0}
	}
	used := make([]bool, n)
	path := make([]int, 0, n)
	// Try start nodes in increasing degree order: low-degree nodes (path
	// endpoints) prune the search fastest.
	starts := make([]int, n)
	for i := range starts {
		starts[i] = i
	}
	sort.Slice(starts, func(a, b int) bool { return g.Degree(starts[a]) < g.Degree(starts[b]) })
	var dfs func(v int) bool
	dfs = func(v int) bool {
		used[v] = true
		path = append(path, v)
		if len(path) == n {
			return true
		}
		for _, w := range g.Neighbors(v) {
			if !used[w] && dfs(w) {
				return true
			}
		}
		used[v] = false
		path = path[:len(path)-1]
		return false
	}
	for _, s := range starts {
		if dfs(s) {
			return path
		}
	}
	return nil
}

// HamiltonianRelabel relabels g along a Hamiltonian path if one exists;
// otherwise it returns g unchanged. The second result reports whether a
// relabeling happened (or was already in place).
func HamiltonianRelabel(g *Graph) (*Graph, bool) {
	if g.HamiltonianLabeled() {
		return g, true
	}
	path := g.FindHamiltonianPath()
	if path == nil {
		return g, false
	}
	rg, err := Relabel(g, path)
	if err != nil {
		// The permutation comes from our own search; failure is a bug.
		panic(err)
	}
	return rg, true
}

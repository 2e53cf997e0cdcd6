package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// referenceNew is New as it stood before the flat adjacency: a map of
// seen edges, one appended list per node and a BFS over a sliding
// queue. It returns the adjacency lists and the Hamiltonian flag of an
// accepted graph, and New's error otherwise.
func referenceNew(name string, n int, edges [][2]int) ([][]int, bool, error) {
	if n <= 0 {
		return nil, false, fmt.Errorf("graph %s: need at least one node, got %d", name, n)
	}
	adj := make([][]int, n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, false, fmt.Errorf("graph %s: edge (%d,%d) out of range [0,%d)", name, u, v, n)
		}
		if u == v {
			return nil, false, fmt.Errorf("graph %s: self-loop at %d", name, u)
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return nil, false, fmt.Errorf("graph %s: duplicate edge (%d,%d)", name, u, v)
		}
		seen[[2]int{u, v}] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, a := range adj {
		sort.Ints(a)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if slices.Contains(dist, -1) {
		return nil, false, fmt.Errorf("graph %s: not connected", name)
	}
	ham := true
	for i := 0; i+1 < n; i++ {
		if _, ok := slices.BinarySearch(adj[i], i+1); !ok {
			ham = false
		}
	}
	return adj, ham, nil
}

// errorClass names the check an error of New reports.
func errorClass(t *testing.T, err error) string {
	for _, class := range []string{"need at least one node", "out of range", "self-loop", "duplicate edge", "not connected"} {
		if strings.Contains(err.Error(), class) {
			return class
		}
	}
	t.Fatalf("unclassified error %q", err)
	return ""
}

// FuzzGraphNew holds New to referenceNew on edge lists over at most 64
// nodes. The mode bits add a spanning path (so larger graphs can be
// connected), let endpoints fall one outside [0,n) on either side, and
// drop repeated edges and loops from the random part (so dense graphs
// can be accepted). Both must accept or reject alike, reject for the
// same check, with the same message unless the check is the duplicate
// one (the reference names the first repeat in list order, New the
// repeat at the smallest node), and agree on every accepted graph's
// neighbours, edges and Hamiltonian labelling.
func FuzzGraphNew(f *testing.F) {
	f.Add(uint8(6), uint8(1), []byte{0, 2, 3, 5})             // path plus chords
	f.Add(uint8(6), uint8(0), []byte{0, 1, 1, 2, 3, 4, 4, 5}) // disconnected
	f.Add(uint8(5), uint8(1), []byte{1, 2})                   // duplicate of a path edge
	f.Add(uint8(5), uint8(0), []byte{3, 3})                   // self-loop
	f.Add(uint8(5), uint8(2), []byte{0, 6, 1, 2, 1, 2})       // out of range before a duplicate
	f.Add(uint8(5), uint8(2), []byte{1, 2, 2, 1, 0, 6})       // duplicate before out of range
	f.Add(uint8(0), uint8(0), []byte{})                       // no nodes
	f.Add(uint8(2), uint8(0), []byte{})                       // one node, no edges
	f.Add(uint8(65), uint8(5), []byte{0, 63, 7, 9, 9, 7, 1, 1, 2, 40, 40, 2})
	f.Fuzz(func(t *testing.T, size, mode uint8, raw []byte) {
		n := int(size%66) - 1 // -1..64
		span := max(n, 1)
		var edges [][2]int
		if mode&1 != 0 {
			for v := 1; v < n; v++ {
				edges = append(edges, [2]int{v - 1, v})
			}
		}
		seen := map[[2]int]bool{}
		for _, e := range edges {
			seen[e] = true
		}
		for i := 0; i+1 < len(raw) && len(edges) < 1024; i += 2 {
			u, v := int(raw[i])%span, int(raw[i+1])%span
			if mode&2 != 0 {
				u, v = int(raw[i])%(span+2)-1, int(raw[i+1])%(span+2)-1
			}
			key := [2]int{min(u, v), max(u, v)}
			if mode&4 != 0 && (u == v || seen[key]) {
				continue
			}
			seen[key] = true
			edges = append(edges, [2]int{u, v})
		}
		g, err := New("fuzz", n, edges)
		adj, ham, refErr := referenceNew("fuzz", n, edges)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("n=%d edges=%v: New error %v, reference error %v", n, edges, err, refErr)
		}
		if err != nil {
			class := errorClass(t, err)
			if ref := errorClass(t, refErr); class != ref {
				t.Fatalf("n=%d edges=%v: New fails %q (%v), reference %q (%v)", n, edges, class, err, ref, refErr)
			}
			if class != "duplicate edge" && err.Error() != refErr.Error() {
				t.Fatalf("n=%d edges=%v: New says %q, reference %q", n, edges, err, refErr)
			}
			return
		}
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		var want [][2]int
		for u, a := range adj {
			if !slices.Equal(g.Neighbors(u), a) {
				t.Fatalf("n=%d edges=%v: Neighbors(%d) = %v, want %v", n, edges, u, g.Neighbors(u), a)
			}
			for _, v := range a {
				if u < v {
					want = append(want, [2]int{u, v})
				}
			}
		}
		if got := g.Edges(); !slices.Equal(got, want) {
			t.Fatalf("n=%d edges=%v: Edges() = %v, want %v", n, edges, got, want)
		}
		if g.HamiltonianLabeled() != ham {
			t.Fatalf("n=%d edges=%v: HamiltonianLabeled() = %v, want %v", n, edges, g.HamiltonianLabeled(), ham)
		}
	})
}

// TestPathAllocs pins the allocations of building a 4096-node path:
// Path's edge list and name, then New's graph, degree offsets, flat
// adjacency and one scratch slice (the map-and-append New made 12,308).
// The bound leaves room for fmt's buffer pool, which a GC can empty.
func TestPathAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() { Path(4096) })
	if allocs > 10 {
		t.Fatalf("Path(4096) makes %.0f allocations, want at most 10", allocs)
	}
}

package exp

import (
	"math/rand"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

func TestTorusEmulationSorts(t *testing.T) {
	// The Corollary's device: any connected factor sorts by replaying
	// the same-size torus program with routed compare-exchanges.
	cases := []struct {
		g *graph.Graph
		r int
	}{
		{graph.CompleteBinaryTree(3), 2}, // non-Hamiltonian
		{graph.Star(5), 2},
		{graph.Path(4), 2}, // Hamiltonian: wraparound pairs cost extra
		{graph.Petersen(), 2},
		{graph.CompleteBinaryTree(3), 3},
	}
	rng := rand.New(rand.NewSource(4))
	for _, c := range cases {
		net := product.MustNew(c.g, c.r)
		keys := make([]simnet.Key, net.Nodes())
		for i := range keys {
			keys[i] = simnet.Key(rng.Intn(300))
		}
		m := simnet.MustNew(net, keys)
		if err := torusEmulation(m); err != nil {
			t.Fatal(err)
		}
		if !m.IsSortedSnake() {
			t.Fatalf("%s: torus emulation failed to sort", net.Name())
		}
	}
}

func TestTorusEmulationK2(t *testing.T) {
	// N=2 factors degenerate to paths; emulation must still sort.
	net := product.MustNew(graph.K2(), 4)
	keys := make([]simnet.Key, 16)
	for i := range keys {
		keys[i] = simnet.Key(16 - i)
	}
	m := simnet.MustNew(net, keys)
	if err := torusEmulation(m); err != nil {
		t.Fatal(err)
	}
	if !m.IsSortedSnake() {
		t.Fatal("emulation on K2^4 failed")
	}
}

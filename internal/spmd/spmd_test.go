package spmd

import (
	"math/rand"
	"sort"
	"testing"

	"productsort/internal/core"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

func randomKeys(n int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = Key(rng.Intn(500))
	}
	return ks
}

// nodePhases returns the compare-exchange phases of net's compiled
// full-sort program, in node-id space.
func nodePhases(t *testing.T, net *product.Network) [][][2]int {
	t.Helper()
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Phases()
}

func TestSortMatchesSimulatorAcrossNetworks(t *testing.T) {
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(3), 2},
		{graph.Path(3), 3},
		{graph.Path(4), 3},
		{graph.K2(), 5},
		{graph.Cycle(4), 3},
		{graph.Petersen(), 2},
		{graph.CompleteBinaryTree(3), 2}, // relayed exchanges
		{graph.Star(5), 2},               // relayed exchanges via the hub
	}
	for _, c := range cfgs {
		net := product.MustNew(c.g, c.r)
		keys := randomKeys(net.Nodes(), 11)

		// Reference: deterministic simulator.
		m := simnet.MustNew(net, make([]Key, net.Nodes()))
		m.LoadSnake(keys)
		core.New(nil).Sort(m)

		// Message-passing engine.
		e, err := Sort(c.g, c.r, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.SnakeKeys(), m.SnakeKeys()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: engines disagree at snake pos %d: %d vs %d",
					net.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestRelayCountsZeroOnHamiltonian(t *testing.T) {
	e, err := Sort(graph.Path(3), 3, randomKeys(27, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Relays() != 0 {
		t.Errorf("Hamiltonian factor produced %d relays", e.Relays())
	}
	if e.Messages() == 0 {
		t.Error("no messages recorded")
	}
}

func TestRelaysPositiveOnTree(t *testing.T) {
	e, err := Sort(graph.CompleteBinaryTree(3), 2, randomKeys(49, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Relays() == 0 {
		t.Error("tree factor should require relayed exchanges")
	}
	keys := e.SnakeKeys()
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("relayed sort produced unsorted output")
		}
	}
}

func TestRunPhaseDirect(t *testing.T) {
	net := product.MustNew(graph.Path(4), 1)
	e, err := New(net, []Key{9, 1, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	e.RunPhase([][2]int{{0, 1}, {2, 3}})
	got := e.Keys()
	want := []Key{1, 9, 3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys=%v want %v", got, want)
		}
	}
}

func TestRunPhaseDescendingOrientation(t *testing.T) {
	net := product.MustNew(graph.Path(2), 1)
	e, _ := New(net, []Key{2, 8})
	e.RunPhase([][2]int{{1, 0}}) // max to node 0
	got := e.Keys()
	if got[0] != 8 || got[1] != 2 {
		t.Fatalf("keys=%v", got)
	}
}

func TestRunPhaseEmpty(t *testing.T) {
	net := product.MustNew(graph.Path(2), 1)
	e, _ := New(net, []Key{1, 2})
	e.RunPhase(nil) // must not deadlock
	if e.Messages() != 0 {
		t.Error("empty phase sent messages")
	}
}

func TestRunPhaseOverlapPanics(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	e, _ := New(net, []Key{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("overlap accepted")
		}
	}()
	e.RunPhase([][2]int{{0, 1}, {1, 2}})
}

func TestNewValidation(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	if _, err := New(net, make([]Key, 5)); err != nil {
	} else {
		t.Error("wrong key count accepted")
	}
	if _, err := Sort(graph.Path(3), 2, make([]Key, 5), nil); err == nil {
		t.Error("wrong key count accepted by Sort")
	}
}

// TestManyPhasesStress runs the full schedule phase-by-phase on a
// larger network to shake out channel lifecycle bugs under -race.
func TestManyPhasesStress(t *testing.T) {
	g := graph.Path(4)
	net := product.MustNew(g, 3)
	phases := nodePhases(t, net)
	keys := randomKeys(net.Nodes(), 77)
	byNode := make([]Key, len(keys))
	for pos, k := range keys {
		byNode[net.NodeAtSnake(pos)] = k
	}
	e, err := New(net, byNode)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range phases {
		e.RunPhase(ph)
	}
	got := e.SnakeKeys()
	wantKeys := append([]Key(nil), keys...)
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	for i := range wantKeys {
		if got[i] != wantKeys[i] {
			t.Fatalf("stress sort mismatch at %d", i)
		}
	}
}

func BenchmarkSPMDSortGrid27(b *testing.B) {
	keys := randomKeys(27, 4)
	for i := 0; i < b.N; i++ {
		if _, err := Sort(graph.Path(3), 3, keys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSynchronizedRoundsMatchSimulator(t *testing.T) {
	// On a Hamiltonian factor every phase is one synchronized round, so
	// the SPMD engine's measured total equals the simulator's charge.
	g := graph.Path(3)
	net := product.MustNew(g, 3)
	phases := nodePhases(t, net)
	keys := randomKeys(net.Nodes(), 33)
	byNode := make([]Key, len(keys))
	for pos, k := range keys {
		byNode[net.NodeAtSnake(pos)] = k
	}
	e, err := New(net, byNode)
	if err != nil {
		t.Fatal(err)
	}
	rounds := e.RunScheduleSynchronized(phases)

	m := simnet.MustNew(net, make([]Key, net.Nodes()))
	m.LoadSnake(keys)
	core.New(nil).Sort(m)
	if rounds != m.Clock().Rounds {
		t.Errorf("synchronized SPMD rounds %d != simulator %d", rounds, m.Clock().Rounds)
	}
	got, want := e.SnakeKeys(), m.SnakeKeys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("synchronized engine diverged at %d", i)
		}
	}
}

func TestSynchronizedRoutedCostsMore(t *testing.T) {
	// On a tree factor, routed phases need multiple synchronized rounds.
	g := graph.CompleteBinaryTree(3)
	net := product.MustNew(g, 2)
	phases := nodePhases(t, net)
	keys := randomKeys(net.Nodes(), 34)
	byNode := make([]Key, len(keys))
	for pos, k := range keys {
		byNode[net.NodeAtSnake(pos)] = k
	}
	e, err := New(net, byNode)
	if err != nil {
		t.Fatal(err)
	}
	rounds := e.RunScheduleSynchronized(phases)
	if rounds <= len(phases) {
		t.Errorf("tree factor: %d rounds for %d phases — relaying should cost extra", rounds, len(phases))
	}
	ks := e.SnakeKeys()
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			t.Fatal("synchronized routed sort failed")
		}
	}
}

func TestSynchronizedEmptyPhase(t *testing.T) {
	net := product.MustNew(graph.Path(2), 1)
	e, _ := New(net, []Key{2, 1})
	if r := e.RunPhaseSynchronized(nil); r != 0 {
		t.Errorf("empty phase measured %d rounds", r)
	}
	if r := e.RunPhaseSynchronized([][2]int{{0, 1}}); r != 1 {
		t.Errorf("adjacent exchange measured %d rounds", r)
	}
	if e.Keys()[0] != 1 {
		t.Error("synchronized exchange did not order keys")
	}
}

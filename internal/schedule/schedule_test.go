package schedule

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"productsort/internal/core"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// families enumerates every factor family in internal/graph at a small
// size, with a dimension count that keeps the property tests fast.
func families() []struct {
	name string
	g    *graph.Graph
	r    int
} {
	return []struct {
		name string
		g    *graph.Graph
		r    int
	}{
		{"path", graph.Path(4), 3},
		{"cycle", graph.Cycle(5), 2},
		{"k2", graph.K2(), 4},
		{"complete", graph.Complete(4), 2},
		{"star", graph.Star(4), 2},
		{"cbtree", graph.CompleteBinaryTree(2), 2},
		{"petersen", graph.Petersen(), 2},
		{"debruijn", graph.DeBruijn(2, 2), 2},
		{"shuffle-exchange", graph.ShuffleExchange(2), 2},
		{"circulant", graph.Circulant(5, 1, 2), 2},
		{"wheel", graph.Wheel(5), 2},
		{"caterpillar", graph.Caterpillar(3, []int{1, 0, 2}), 2},
		{"hypercube-graph", graph.HypercubeGraph(2), 2},
		{"kautz", graph.Kautz(2, 2), 2},
	}
}

func randomKeys(n int, seed int64) []simnet.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]simnet.Key, n)
	for i := range keys {
		keys[i] = simnet.Key(rng.Intn(2 * n))
	}
	return keys
}

// directSort runs the pre-refactor direct path: the algorithm drives a
// live machine, which moves keys and accumulates its clock as phases
// arrive.
func directSort(t *testing.T, net *product.Network, keys []simnet.Key) ([]simnet.Key, simnet.Clock) {
	t.Helper()
	m, err := simnet.New(net, keys)
	if err != nil {
		t.Fatal(err)
	}
	core.New(nil).Sort(m)
	return m.Keys(), m.Clock()
}

// TestReplayEquivalence is the schedule/replay equivalence property:
// for every factor family in internal/graph, compiled-program replay
// produces byte-identical keys and an identical Clock to the direct
// path, across randomized inputs (testing/quick drives the seeds).
func TestReplayEquivalence(t *testing.T) {
	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			net, err := product.New(f.g, f.r)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			check := func(seed int64) bool {
				keys := randomKeys(net.Nodes(), seed)
				wantKeys, wantClock := directSort(t, net, keys)
				gotKeys := append([]simnet.Key(nil), keys...)
				gotClock, err := ExecBackend{}.Run(prog, gotKeys)
				if err != nil {
					t.Fatal(err)
				}
				if gotClock != wantClock {
					t.Logf("clock mismatch: got %+v want %+v", gotClock, wantClock)
					return false
				}
				for i := range wantKeys {
					if gotKeys[i] != wantKeys[i] {
						t.Logf("key mismatch at node %d: got %d want %d", i, gotKeys[i], wantKeys[i])
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 4}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMachineBackendRederivesClock replays compiled programs through a
// live machine, which re-derives every round charge from scratch; the
// result must equal the program's precomputed clock — including on
// non-Hamiltonian factors where phases carry routed costs.
func TestMachineBackendRederivesClock(t *testing.T) {
	for _, f := range families() {
		net, err := product.New(f.g, f.r)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := simnet.New(net, randomKeys(net.Nodes(), 42))
		if err != nil {
			t.Fatal(err)
		}
		ReplayOnMachine(prog, m)
		if clk := m.Clock(); clk != prog.Clock() {
			t.Errorf("%s: machine replay clock %+v != program clock %+v", f.name, clk, prog.Clock())
		}
		if !m.IsSortedSnake() {
			t.Errorf("%s: machine replay did not sort", f.name)
		}
	}
}

// TestCompileCachedOnce asserts the warm-path guarantee: after the
// first Compile for a topology, further compiles (including from a
// structurally identical but separately constructed network) perform
// zero schedule construction.
func TestCompileCachedOnce(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net1 := product.MustNew(graph.Path(4), 3)
	p1, err := Compile(net1, nil)
	if err != nil {
		t.Fatal(err)
	}
	compiles := Stats().Compiles
	if compiles != 1 {
		t.Fatalf("first compile: %d constructions, want 1", compiles)
	}
	for i := 0; i < 10; i++ {
		p2, err := Compile(net1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p2 != p1 {
			t.Fatal("cached compile returned a different program")
		}
	}
	// A separately constructed, structurally identical network must hit
	// the same entry.
	net2 := product.MustNew(graph.Path(4), 3)
	p3, err := Compile(net2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("structurally identical network missed the cache")
	}
	if got := Stats().Compiles; got != 1 {
		t.Fatalf("after warm compiles: %d constructions, want 1", got)
	}
	if Stats().Hits != 11 {
		t.Errorf("hits = %d, want 11", Stats().Hits)
	}
}

// TestCompileConcurrent hammers the cache from many goroutines; the
// build must happen exactly once and every caller must see the same
// program.
func TestCompileConcurrent(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net := product.MustNew(graph.Cycle(4), 3)
	const n = 16
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Compile(net, nil)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent compiles returned different programs")
		}
	}
	if got := Stats().Compiles; got != 1 {
		t.Fatalf("concurrent compiles performed %d constructions, want 1", got)
	}
}

// TestSignatureDistinguishes checks the cache key separates what must
// be separated: engine, dimension count, factor size, and labeling.
func TestSignatureDistinguishes(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	base := Signature(net, "auto")
	if s := Signature(net, "shearsort"); s == base {
		t.Error("engine name not in signature")
	}
	if s := Signature(product.MustNew(graph.Path(4), 3), "auto"); s == base {
		t.Error("dimension count not in signature")
	}
	if s := Signature(product.MustNew(graph.Path(5), 2), "auto"); s == base {
		t.Error("factor size not in signature")
	}
	// Relabeling a star moves its center: different labeling, different
	// schedule, different signature.
	star := graph.Star(4)
	perm := []int{1, 0, 2, 3}
	relabeled, err := graph.Relabel(star, perm)
	if err != nil {
		t.Fatal(err)
	}
	s1 := Signature(product.MustNew(star, 2), "auto")
	s2 := Signature(product.MustNew(relabeled, 2), "auto")
	if s1 == s2 {
		t.Error("labeling not in signature")
	}
	// Two separately built identical graphs agree.
	if Signature(product.MustNew(graph.Path(4), 2), "auto") != base {
		t.Error("identical networks disagree on signature")
	}
}

// TestCompileErrorOnBadRadices: the heterogeneous radix condition
// surfaces as an error, not a panic, and is not poisoned in the cache.
func TestCompileErrorOnBadRadices(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net := product.MustNewHetero([]*graph.Graph{graph.Path(2), graph.Path(2), graph.Path(4)})
	if _, err := Compile(net, nil); err == nil {
		t.Fatal("want error for increasing radices above dimension 1")
	}
	// The same error comes back on retry (cached), still as an error.
	if _, err := Compile(net, nil); err == nil {
		t.Fatal("want cached error on retry")
	}
}

// TestProgramTheorem1Counts spot-checks the precomputed clock against
// Theorem 1's closed forms on a Hamiltonian-labeled network.
func TestProgramTheorem1Counts(t *testing.T) {
	net := product.MustNew(graph.Path(4), 3)
	prog, err := Compile(net, sort2d.Shearsort{})
	if err != nil {
		t.Fatal(err)
	}
	r := net.R()
	if got, want := prog.Clock().S2Phases, core.PredictedS2Phases(r); got != want {
		t.Errorf("S2 phases %d, want %d", got, want)
	}
	if got, want := prog.Clock().SweepPhases, core.PredictedSweeps(r); got != want {
		t.Errorf("sweeps %d, want %d", got, want)
	}
	if got, want := prog.Rounds(), core.PredictedRounds(net, sort2d.Shearsort{}); got != want {
		t.Errorf("rounds %d, want %d", got, want)
	}
}

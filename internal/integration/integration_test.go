// Package integration holds cross-module tests: every engine and
// representation (deterministic machine, compiled-program op replay,
// SPMD message passing, columnar replay, merge-split blocks) must agree
// on the same inputs, and measured costs must match the analytic model.
package integration

import (
	"math/rand"
	"sort"
	"testing"

	"productsort/internal/baseline"
	"productsort/internal/blocksort"
	"productsort/internal/core"
	"productsort/internal/cost"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
	"productsort/internal/spmd"
	"productsort/internal/workload"
)

// configs is the cross-section of factor families exercised end to end.
func configs() []struct {
	g *graph.Graph
	r int
} {
	return []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(3), 3},
		{graph.Path(4), 2},
		{graph.Cycle(5), 2},
		{graph.K2(), 5},
		{graph.Petersen(), 2},
		{graph.DeBruijn(2, 3), 2},
		{graph.ShuffleExchange(3), 2},
		{graph.CompleteBinaryTree(3), 2},
		{graph.Star(4), 2},
		{graph.Wheel(6), 2},
		{graph.Circulant(8, 1, 3), 2},
		{graph.Kautz(2, 1), 2},
		{graph.Caterpillar(3, []int{1, 1, 1}), 2},
		{graph.HypercubeGraph(2), 2},
	}
}

// TestFiveWaysAgree sorts the same keys five ways and demands identical
// output: simulator, the program's op replay over node-indexed keys
// (the path behind CompiledNetwork.Sort and SortResilient), SPMD
// engine, columnar replay of the pruned stream, block sort with block
// size 1.
func TestFiveWaysAgree(t *testing.T) {
	for _, c := range configs() {
		net := product.MustNew(c.g, c.r)
		keys := workload.Uniform(net.Nodes(), 99)

		m1 := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
		m1.LoadSnake(keys)
		core.New(nil).Sort(m1)
		ref := m1.SnakeKeys()

		e, err := spmd.Sort(c.g, c.r, keys, nil)
		if err != nil {
			t.Fatal(err)
		}

		prog, err := schedule.Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		byNode := make([]simnet.Key, net.Nodes())
		for pos, k := range keys {
			byNode[net.NodeAtSnake(pos)] = k
		}
		if _, err := (schedule.ExecBackend{}).Run(prog, byNode); err != nil {
			t.Fatal(err)
		}
		replay := append([]simnet.Key(nil), keys...)
		if err := schedule.RunBatchColumnar(prog, [][]simnet.Key{replay}, 1, nil); err != nil {
			t.Fatal(err)
		}

		blocks := append([]simnet.Key(nil), keys...)
		if _, err := blocksort.Sort(prog, blocks, 1); err != nil {
			t.Fatal(err)
		}

		for i := range ref {
			if byNode[net.NodeAtSnake(i)] != ref[i] {
				t.Fatalf("%s: op replay diverged at %d", net.Name(), i)
			}
			if e.SnakeKeys()[i] != ref[i] {
				t.Fatalf("%s: SPMD diverged at %d", net.Name(), i)
			}
			if replay[i] != ref[i] {
				t.Fatalf("%s: schedule replay diverged at %d", net.Name(), i)
			}
			if blocks[i] != ref[i] {
				t.Fatalf("%s: blocksort diverged at %d", net.Name(), i)
			}
		}
	}
}

// TestMeasuredCostMatchesModel cross-checks machine accounting against
// the cost package on Hamiltonian factors for every engine.
func TestMeasuredCostMatchesModel(t *testing.T) {
	engines := []sort2d.Engine{sort2d.Shearsort{}, sort2d.SnakeOET{}}
	for _, c := range configs() {
		if !c.g.HamiltonianLabeled() {
			continue
		}
		for _, e := range engines {
			net := product.MustNew(c.g, c.r)
			m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
			m.LoadSnake(workload.Permutation(net.Nodes(), 5))
			core.New(e).Sort(m)
			clk := m.Clock()
			want := cost.SortTime(c.r, e.Rounds(c.g.N()), 1)
			if clk.Rounds != want {
				t.Errorf("%s/%s: rounds %d want %d", net.Name(), e.Name(), clk.Rounds, want)
			}
			cost.Check(c.r, clk.S2Phases, clk.SweepPhases)
			if !m.IsSortedSnake() {
				t.Errorf("%s/%s: unsorted", net.Name(), e.Name())
			}
		}
	}
}

// TestEveryWorkloadEveryFamily is the broad correctness sweep: all ten
// workload generators across all fourteen factor families.
func TestEveryWorkloadEveryFamily(t *testing.T) {
	s := core.New(nil)
	for _, c := range configs() {
		net := product.MustNew(c.g, c.r)
		for _, name := range workload.Names() {
			gen, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			keys := gen(net.Nodes(), 31)
			m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
			m.LoadSnake(keys)
			s.Sort(m)
			if !m.IsSortedSnake() {
				t.Fatalf("%s workload %s: unsorted", net.Name(), name)
			}
			got := m.SnakeKeys()
			want := baseline.SequentialSortedCopy(keys)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workload %s: multiset changed", net.Name(), name)
				}
			}
		}
	}
}

// TestScheduleDepthBoundedByTheorem1: schedule depth never exceeds the
// Theorem 1 phase-time product (it is lower when phases are empty).
func TestScheduleDepthBoundedByTheorem1(t *testing.T) {
	for _, c := range configs() {
		net := product.MustNew(c.g, c.r)
		prog, err := schedule.Compile(net, sort2d.Shearsort{})
		if err != nil {
			t.Fatal(err)
		}
		bound := cost.SortTime(c.r, (sort2d.Shearsort{}).Rounds(c.g.N()), 1)
		if depth := prog.Clock().ComparePhases; depth > bound {
			t.Errorf("%s: schedule depth %d > Theorem 1 bound %d", net.Name(), depth, bound)
		}
	}
}

// TestBigBlockEndToEnd: 100k+ keys through a 64-processor schedule.
func TestBigBlockEndToEnd(t *testing.T) {
	prog, err := schedule.Compile(product.MustNew(graph.K2(), 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	const block = 2048 // 131072 keys total
	rng := rand.New(rand.NewSource(17))
	keys := make([]simnet.Key, prog.Nodes()*block)
	for i := range keys {
		keys[i] = simnet.Key(rng.Int63n(1 << 40))
	}
	want := append([]simnet.Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	st, err := blocksort.Sort(prog, keys, block)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("big block sort mismatch at %d", i)
		}
	}
	if depth := prog.Clock().ComparePhases; st.Rounds != depth {
		t.Errorf("rounds %d != depth %d", st.Rounds, depth)
	}
}

// TestDeepDimensionStress sorts on r=6 (729 nodes) and r=8 hypercube
// (256 nodes) to exercise deep merge recursions.
func TestDeepDimensionStress(t *testing.T) {
	for _, c := range []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(3), 6},
		{graph.K2(), 8},
	} {
		net := product.MustNew(c.g, c.r)
		keys := workload.Permutation(net.Nodes(), 12)
		m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
		m.LoadSnake(keys)
		core.New(nil).Sort(m)
		if !m.IsSortedSnake() {
			t.Fatalf("%s: unsorted", net.Name())
		}
		clk := m.Clock()
		cost.Check(c.r, clk.S2Phases, clk.SweepPhases)
	}
}

// TestLargeScaleStress pushes the simulator to sizes the experiments
// keep modest: a 16³ grid (4096 processors) and a 12-dimensional
// hypercube (4096 processors). Skipped with -short.
func TestLargeScaleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale stress")
	}
	for _, c := range []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(16), 3},
		{graph.K2(), 12},
	} {
		net := product.MustNew(c.g, c.r)
		keys := workload.Uniform(net.Nodes(), 4)
		m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
		m.LoadSnake(keys)
		core.New(nil).Sort(m)
		if !m.IsSortedSnake() {
			t.Fatalf("%s: unsorted", net.Name())
		}
		clk := m.Clock()
		cost.Check(c.r, clk.S2Phases, clk.SweepPhases)
		t.Logf("%s: %d processors sorted in %d rounds", net.Name(), net.Nodes(), clk.Rounds)
	}
}

// TestHeteroEndToEnd: heterogeneous networks through every execution
// path at once.
func TestHeteroEndToEnd(t *testing.T) {
	net := product.MustNewHetero([]*graph.Graph{graph.Path(3), graph.Cycle(4), graph.K2()})
	keys := workload.Uniform(net.Nodes(), 8)

	m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
	m.LoadSnake(keys)
	core.New(nil).Sort(m)
	ref := m.SnakeKeys()

	e, err := spmd.SortNet(net, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := append([]simnet.Key(nil), keys...)
	if err := schedule.RunBatchColumnar(prog, [][]simnet.Key{replay}, 1, nil); err != nil {
		t.Fatal(err)
	}
	blocks := append([]simnet.Key(nil), keys...)
	if _, err := blocksort.Sort(prog, blocks, 1); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if e.SnakeKeys()[i] != ref[i] || replay[i] != ref[i] || blocks[i] != ref[i] {
			t.Fatalf("hetero paths diverge at %d", i)
		}
	}
}

package productsort

import (
	"sort"
	"testing"

	"productsort/internal/workload"
)

func TestConstructors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Network, error)
		nodes int
		ham   bool
	}{
		{"grid", func() (*Network, error) { return Grid(4, 3) }, 64, true},
		{"torus", func() (*Network, error) { return Torus(5, 2) }, 25, true},
		{"hypercube", func() (*Network, error) { return Hypercube(6) }, 64, true},
		{"mct", func() (*Network, error) { return MeshConnectedTrees(3, 2) }, 49, false},
		{"petersen", func() (*Network, error) { return PetersenCube(2) }, 100, true},
		{"debruijn", func() (*Network, error) { return DeBruijnProduct(2, 3, 2) }, 64, true},
		{"shuffle-exchange", func() (*Network, error) { return ShuffleExchangeProduct(2, 3) }, 64, true},
	}
	for _, c := range cases {
		nw, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nw.Nodes() != c.nodes {
			t.Errorf("%s: nodes=%d want %d", c.name, nw.Nodes(), c.nodes)
		}
		if nw.HamiltonianFactor() != c.ham {
			t.Errorf("%s: hamiltonian=%v want %v", c.name, nw.HamiltonianFactor(), c.ham)
		}
		if nw.Name() == "" || nw.Diameter() <= 0 || nw.Edges() <= 0 {
			t.Errorf("%s: degenerate properties", c.name)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	bad := []func() (*Network, error){
		func() (*Network, error) { return Grid(1, 3) },
		func() (*Network, error) { return Grid(4, 0) },
		func() (*Network, error) { return Torus(2, 2) },
		func() (*Network, error) { return MeshConnectedTrees(0, 2) },
		func() (*Network, error) { return DeBruijnProduct(1, 2, 2) },
		func() (*Network, error) { return ShuffleExchangeProduct(0, 2) },
		func() (*Network, error) { return Custom("x", 3, [][2]int{{0, 1}}, 2) }, // disconnected
	}
	for i, f := range bad {
		if _, err := f(); err == nil {
			t.Errorf("case %d: invalid constructor accepted", i)
		}
	}
}

func TestSortEveryFamily(t *testing.T) {
	nets := []*Network{}
	for _, f := range []func() (*Network, error){
		func() (*Network, error) { return Grid(3, 3) },
		func() (*Network, error) { return Torus(4, 2) },
		func() (*Network, error) { return Hypercube(5) },
		func() (*Network, error) { return MeshConnectedTrees(3, 2) },
		func() (*Network, error) { return PetersenCube(2) },
		func() (*Network, error) { return DeBruijnProduct(2, 2, 3) },
		func() (*Network, error) { return ShuffleExchangeProduct(3, 2) },
	} {
		nw, err := f()
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	for _, nw := range nets {
		keys := workload.Uniform(nw.Nodes(), 42)
		res, err := Sort(nw, keys)
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		if !IsSorted(res.Keys) {
			t.Fatalf("%s: output unsorted", nw.Name())
		}
		want := append([]Key(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if res.Keys[i] != want[i] {
				t.Fatalf("%s: multiset changed at %d", nw.Name(), i)
			}
		}
		r := nw.Dims()
		if res.S2Phases != (r-1)*(r-1) || res.Sweeps != (r-1)*(r-2) {
			t.Errorf("%s: phases %d/%d disagree with Theorem 1", nw.Name(), res.S2Phases, res.Sweeps)
		}
		if res.Rounds != res.S2Rounds+res.SweepRounds {
			t.Errorf("%s: round split inconsistent", nw.Name())
		}
		if nw.HamiltonianFactor() && res.RoutedPhases != 0 {
			t.Errorf("%s: unexpected routed phases", nw.Name())
		}
	}
}

func TestSortWrongKeyCount(t *testing.T) {
	nw, _ := Hypercube(3)
	if _, err := Sort(nw, make([]Key, 7)); err == nil {
		t.Error("wrong key count accepted")
	}
}

func TestPredictedRoundsMatchesMeasured(t *testing.T) {
	cases := []struct {
		nw     *Network
		engine string
	}{
		{mustNet(Grid(4, 3)), "shearsort"},
		{mustNet(Hypercube(6)), "opt4"},
		{mustNet(Torus(4, 3)), "auto"},
		{mustNet(Grid(3, 4)), "snake-oet"},
	}
	for _, c := range cases {
		s, err := NewSorter(WithEngine(c.engine))
		if err != nil {
			t.Fatal(err)
		}
		keys := workload.Permutation(c.nw.Nodes(), 7)
		res, err := s.Sort(c.nw, keys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.nw.PredictedRounds(c.engine)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != want {
			t.Errorf("%s engine=%s: rounds=%d predicted %d", c.nw.Name(), c.engine, res.Rounds, want)
		}
	}
}

func mustNet(nw *Network, err error) *Network {
	if err != nil {
		panic(err)
	}
	return nw
}

func TestWithObserver(t *testing.T) {
	nw := mustNet(Grid(3, 3))
	var stages []string
	s, err := NewSorter(WithObserver(func(stage string, keys []Key) {
		stages = append(stages, stage)
		if len(keys) != 27 {
			t.Errorf("observer got %d keys", len(keys))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(nw, workload.Uniform(27, 1)); err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Error("observer never called")
	}
}

func TestWithEngineUnknown(t *testing.T) {
	if _, err := NewSorter(WithEngine("bogus")); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestCustomAndRelabel(t *testing.T) {
	// A 5-cycle given with shuffled labels: 0-2-4-1-3-0.
	edges := [][2]int{{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}}
	nw, err := Custom("c5shuffled", 5, edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nw.HamiltonianFactor() {
		t.Fatal("shuffled labels should not trace a Hamiltonian path")
	}
	relabeled, ok := RelabelHamiltonian(nw)
	if !ok || !relabeled.HamiltonianFactor() {
		t.Fatal("relabeling failed on a cycle")
	}
	// Both versions sort correctly; the relabeled one avoids routing.
	keys := workload.Uniform(25, 3)
	resA, err := Sort(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Sort(relabeled, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(resA.Keys) || !IsSorted(resB.Keys) {
		t.Fatal("custom network failed to sort")
	}
	if resB.RoutedPhases != 0 {
		t.Error("relabeled network still routed")
	}
	if resA.RoutedPhases == 0 {
		t.Error("shuffled labels should have routed at least once")
	}
	if resB.Rounds > resA.Rounds {
		t.Errorf("relabeling did not help: %d vs %d rounds", resB.Rounds, resA.Rounds)
	}
}

func TestSnakeOrderIsPermutation(t *testing.T) {
	nw := mustNet(PetersenCube(2))
	order := nw.SnakeOrder()
	seen := make([]bool, nw.Nodes())
	for _, id := range order {
		if id < 0 || id >= nw.Nodes() || seen[id] {
			t.Fatal("snake order not a permutation")
		}
		seen[id] = true
	}
}

func TestSortAllWorkloads(t *testing.T) {
	nw := mustNet(Grid(3, 3))
	for _, name := range workload.Names() {
		g, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		keys := g(27, 13)
		res, err := Sort(nw, keys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !IsSorted(res.Keys) {
			t.Fatalf("workload %s: unsorted output", name)
		}
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]Key{1, 2, 2, 3}) || !IsSorted(nil) || IsSorted([]Key{2, 1}) {
		t.Error("IsSorted wrong")
	}
}

func TestHypercube1D(t *testing.T) {
	nw := mustNet(Hypercube(1))
	res, err := Sort(nw, []Key{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys[0] != 3 || res.Keys[1] != 5 {
		t.Error("1-D sort failed")
	}
}

func TestPublicMerge(t *testing.T) {
	nw := mustNet(Grid(3, 3))
	s, _ := NewSorter()
	slabs := make([][]Key, 3)
	for u := range slabs {
		slab := workload.Uniform(9, int64(u))
		sort.Slice(slab, func(i, j int) bool { return slab[i] < slab[j] })
		slabs[u] = slab
	}
	res, err := s.Merge(nw, slabs)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(res.Keys) {
		t.Fatal("merge output unsorted")
	}
	// Lemma 3 counts for k=r=3: 3 S2 phases, 2 sweeps.
	if res.S2Phases != 3 || res.Sweeps != 2 {
		t.Errorf("phases %d/%d want 3/2", res.S2Phases, res.Sweeps)
	}
	// Validation paths.
	if _, err := s.Merge(nw, slabs[:2]); err == nil {
		t.Error("wrong slab count accepted")
	}
	bad := [][]Key{{3, 2, 1, 0, 0, 0, 0, 0, 0}, slabs[1], slabs[2]}
	if _, err := s.Merge(nw, bad); err == nil {
		t.Error("unsorted slab accepted")
	}
	short := [][]Key{slabs[0][:5], slabs[1], slabs[2]}
	if _, err := s.Merge(nw, short); err == nil {
		t.Error("short slab accepted")
	}
}

func TestPublicSnakeCutWidth(t *testing.T) {
	if got := mustNet(Grid(4, 2)).SnakeCutWidth(); got != 4 {
		t.Errorf("grid4x4 cut %d want 4", got)
	}
	if got := mustNet(Hypercube(4)).SnakeCutWidth(); got != 8 {
		t.Errorf("Q4 cut %d want 8", got)
	}
}

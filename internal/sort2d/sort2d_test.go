package sort2d

import (
	"math/rand"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// checkBlockOrder verifies every block spanned by dims is sorted in the
// direction reported by asc.
func checkBlockOrder(t *testing.T, m *simnet.Machine, dimA, dimB int, asc func(int) bool) {
	t.Helper()
	net := m.Net()
	dims := []int{dimA, dimB}
	for _, base := range net.BlockBases(dims) {
		ks := m.BlockSnakeKeys(base, dims)
		up := asc(base)
		for i := 1; i < len(ks); i++ {
			if up && ks[i] < ks[i-1] {
				t.Fatalf("block %d not ascending at %d: %v", base, i, ks)
			}
			if !up && ks[i] > ks[i-1] {
				t.Fatalf("block %d not descending at %d: %v", base, i, ks)
			}
		}
	}
}

func randomKeys(n int, seed int64) []simnet.Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]simnet.Key, n)
	for i := range ks {
		ks[i] = simnet.Key(rng.Intn(1000))
	}
	return ks
}

func engines(n int) []Engine {
	es := []Engine{Shearsort{}, SnakeOET{}, Auto{}}
	if n == 2 {
		es = append(es, Opt4{})
	}
	return es
}

func TestSortAscendingAllFactors(t *testing.T) {
	factors := []*graph.Graph{
		graph.Path(3), graph.Path(4), graph.Path(5),
		graph.Cycle(4), graph.K2(), graph.Petersen(),
		graph.CompleteBinaryTree(3), // non-Hamiltonian: routed comparators
		graph.Star(4),               // non-Hamiltonian
		graph.DeBruijn(2, 3),
	}
	for _, g := range factors {
		net := product.MustNew(g, 2)
		for _, e := range engines(g.N()) {
			for seed := int64(0); seed < 3; seed++ {
				m := simnet.MustNew(net, randomKeys(net.Nodes(), seed))
				e.Sort(m, 1, 2, AscendingAll)
				checkBlockOrder(t, m, 1, 2, AscendingAll)
				if m.Clock().S2Phases != 1 {
					t.Errorf("%s on %s: S2Phases=%d want 1", e.Name(), g.Name(), m.Clock().S2Phases)
				}
			}
		}
	}
}

// TestSortZeroOneExhaustive applies the zero-one principle: an engine
// that sorts every 0-1 input sorts everything. Exhaustive over all 2^9
// inputs for N=3 and all 2^16 for N=4 (shearsort only).
func TestSortZeroOneExhaustive(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(3), graph.Cycle(3)} {
		net := product.MustNew(g, 2)
		size := net.Nodes()
		for _, e := range engines(g.N()) {
			for mask := 0; mask < 1<<size; mask++ {
				keys := make([]simnet.Key, size)
				for i := range keys {
					keys[i] = simnet.Key(mask >> i & 1)
				}
				m := simnet.MustNew(net, keys)
				e.Sort(m, 1, 2, AscendingAll)
				if !m.IsSortedSnake() {
					t.Fatalf("%s on %s failed 0-1 input %b: %v", e.Name(), g.Name(), mask, m.SnakeKeys())
				}
			}
		}
	}
	net := product.MustNew(graph.Path(4), 2)
	for mask := 0; mask < 1<<16; mask++ {
		keys := make([]simnet.Key, 16)
		for i := range keys {
			keys[i] = simnet.Key(mask >> i & 1)
		}
		m := simnet.MustNew(net, keys)
		Shearsort{}.Sort(m, 1, 2, AscendingAll)
		if !m.IsSortedSnake() {
			t.Fatalf("shearsort failed 0-1 input %016b", mask)
		}
	}
}

func TestOpt4Exhaustive(t *testing.T) {
	net := product.MustNew(graph.K2(), 2)
	// All 4! permutations and all 2^4 0-1 inputs.
	perms := [][]simnet.Key{}
	var permute func(cur, rest []simnet.Key)
	permute = func(cur, rest []simnet.Key) {
		if len(rest) == 0 {
			perms = append(perms, append([]simnet.Key(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]simnet.Key(nil), rest[:i]...), rest[i+1:]...)
			permute(append(cur, rest[i]), next)
		}
	}
	permute(nil, []simnet.Key{1, 2, 3, 4})
	for _, p := range perms {
		m := simnet.MustNew(net, p)
		Opt4{}.Sort(m, 1, 2, AscendingAll)
		if !m.IsSortedSnake() {
			t.Fatalf("Opt4 failed on %v: %v", p, m.SnakeKeys())
		}
		if m.Clock().Rounds != 3 {
			t.Fatalf("Opt4 took %d rounds want 3", m.Clock().Rounds)
		}
	}
}

func TestDescendingSort(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(3), graph.K2(), graph.Path(4)} {
		net := product.MustNew(g, 2)
		for _, e := range engines(g.N()) {
			m := simnet.MustNew(net, randomKeys(net.Nodes(), 11))
			desc := func(int) bool { return false }
			e.Sort(m, 1, 2, desc)
			checkBlockOrder(t, m, 1, 2, desc)
		}
	}
}

// TestAlternatingDirectionsAcrossBlocks sorts the PG_2 blocks of a
// 3-dimensional network with direction chosen per block, as Step 4 of
// the merge does.
func TestAlternatingDirectionsAcrossBlocks(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	groupDims := []int{3}
	asc := func(base int) bool { return net.BlockWeight(base, groupDims)%2 == 0 }
	for _, e := range engines(3) {
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 5))
		e.Sort(m, 1, 2, asc)
		checkBlockOrder(t, m, 1, 2, asc)
	}
}

// TestSortOnNonUnitDims sorts blocks spanned by dimensions other than
// {1,2}, which the recursive merge requires.
func TestSortOnNonUnitDims(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	for _, dims := range [][2]int{{2, 3}, {1, 3}, {3, 1}, {2, 1}} {
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 7))
		Shearsort{}.Sort(m, dims[0], dims[1], AscendingAll)
		checkBlockOrder(t, m, dims[0], dims[1], AscendingAll)
	}
}

func TestPredictedRounds(t *testing.T) {
	// On Hamiltonian-labeled factors the measured rounds must equal the
	// engine's prediction.
	cases := []struct {
		g *graph.Graph
		e Engine
	}{
		{graph.Path(3), Shearsort{}},
		{graph.Path(4), Shearsort{}},
		{graph.Path(8), Shearsort{}},
		{graph.Path(3), SnakeOET{}},
		{graph.Path(5), SnakeOET{}},
		{graph.K2(), Opt4{}},
		{graph.K2(), Auto{}},
		{graph.Petersen(), Auto{}},
	}
	for _, c := range cases {
		net := product.MustNew(c.g, 2)
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 3))
		c.e.Sort(m, 1, 2, AscendingAll)
		if got, want := m.Clock().Rounds, c.e.Rounds(c.g.N()); got != want {
			t.Errorf("%s on %s: %d rounds want %d", c.e.Name(), c.g.Name(), got, want)
		}
	}
}

func TestRoundsFormulas(t *testing.T) {
	if (Shearsort{}).Rounds(4) != (2*2+1)*4 {
		t.Error("shearsort rounds formula")
	}
	if (Shearsort{}).Rounds(3) != (2*2+1)*3 {
		t.Error("shearsort rounds formula for non-power-of-two")
	}
	if (SnakeOET{}).Rounds(5) != 25 {
		t.Error("snake-oet rounds formula")
	}
	if (Opt4{}).Rounds(2) != 3 {
		t.Error("opt4 rounds")
	}
	if (Shearsort{}).Rounds(2) != 3 {
		t.Error("shearsort N=2 rounds (odd-parity rounds are empty)")
	}
	if (Auto{}).Rounds(2) != 3 || (Auto{}).Rounds(6) != (Shearsort{}).Rounds(6) {
		t.Error("auto rounds")
	}
}

func TestOpt4RejectsLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Opt4 accepted N=3")
		}
	}()
	net := product.MustNew(graph.Path(3), 2)
	m := simnet.MustNew(net, randomKeys(9, 1))
	Opt4{}.Sort(m, 1, 2, AscendingAll)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"auto", "shearsort", "snake-oet", "opt4", ""} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("bogus engine accepted")
	}
}

// TestDuplicateKeysStable checks sorting with many duplicates.
func TestDuplicateKeysStable(t *testing.T) {
	net := product.MustNew(graph.Path(5), 2)
	keys := make([]simnet.Key, 25)
	for i := range keys {
		keys[i] = simnet.Key(i % 3)
	}
	m := simnet.MustNew(net, keys)
	Shearsort{}.Sort(m, 1, 2, AscendingAll)
	if !m.IsSortedSnake() {
		t.Error("duplicates broke shearsort")
	}
}

func BenchmarkShearsortPath8(b *testing.B) {
	net := product.MustNew(graph.Path(8), 2)
	keys := randomKeys(64, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := simnet.MustNew(net, keys)
		Shearsort{}.Sort(m, 1, 2, AscendingAll)
	}
}

func BenchmarkSnakeOETPath8(b *testing.B) {
	net := product.MustNew(graph.Path(8), 2)
	keys := randomKeys(64, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := simnet.MustNew(net, keys)
		SnakeOET{}.Sort(m, 1, 2, AscendingAll)
	}
}

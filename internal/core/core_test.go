package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

func randomKeys(n int, seed int64) []simnet.Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]simnet.Key, n)
	for i := range ks {
		ks[i] = simnet.Key(rng.Intn(10 * n))
	}
	return ks
}

// checkSortedPermutation verifies the machine holds exactly the multiset
// of the input keys, in nondecreasing snake order.
func checkSortedPermutation(t *testing.T, m *simnet.Machine, input []simnet.Key) {
	t.Helper()
	if !m.IsSortedSnake() {
		t.Fatalf("not snake-sorted: %v", m.SnakeKeys())
	}
	got := m.SnakeKeys()
	want := append([]simnet.Key(nil), input...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key multiset changed at snake pos %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestSortRandomAcrossNetworks(t *testing.T) {
	cases := []struct {
		factor *graph.Graph
		r      int
	}{
		{graph.Path(3), 2},
		{graph.Path(3), 3},
		{graph.Path(3), 4},
		{graph.Path(4), 3},
		{graph.Path(5), 3},
		{graph.Cycle(4), 3},
		{graph.Cycle(5), 2},
		{graph.K2(), 2},
		{graph.K2(), 5},
		{graph.K2(), 7},
		{graph.Petersen(), 2},
		{graph.Complete(3), 3},
		{graph.DeBruijn(2, 2), 3},
		{graph.DeBruijn(2, 3), 2},
		{graph.ShuffleExchange(2), 3},
		{graph.ShuffleExchange(3), 2},
		{graph.CompleteBinaryTree(3), 2}, // non-Hamiltonian (MCT)
		{graph.CompleteBinaryTree(3), 3},
		{graph.Star(4), 3}, // non-Hamiltonian
	}
	for _, c := range cases {
		net := product.MustNew(c.factor, c.r)
		s := New(nil)
		for seed := int64(0); seed < 3; seed++ {
			keys := randomKeys(net.Nodes(), seed)
			m := simnet.MustNew(net, keys)
			s.Sort(m)
			checkSortedPermutation(t, m, keys)
		}
	}
}

// TestSortZeroOneExhaustiveHypercube applies the zero-one principle
// exhaustively on hypercubes up to 16 nodes: every 0-1 input must sort.
func TestSortZeroOneExhaustiveHypercube(t *testing.T) {
	for _, r := range []int{2, 3, 4} {
		net := product.MustNew(graph.K2(), r)
		size := net.Nodes()
		s := New(nil)
		for mask := 0; mask < 1<<size; mask++ {
			keys := make([]simnet.Key, size)
			for i := range keys {
				keys[i] = simnet.Key(mask >> i & 1)
			}
			m := simnet.MustNew(net, keys)
			s.Sort(m)
			if !m.IsSortedSnake() {
				t.Fatalf("r=%d: 0-1 input %b unsorted: %v", r, mask, m.SnakeKeys())
			}
		}
	}
}

// TestSortZeroOneRandomLarge samples 0-1 inputs on networks too large
// for exhaustion.
func TestSortZeroOneRandomLarge(t *testing.T) {
	nets := []*product.Network{
		product.MustNew(graph.Path(3), 4),
		product.MustNew(graph.Path(4), 3),
		product.MustNew(graph.CompleteBinaryTree(3), 2),
		product.MustNew(graph.Petersen(), 2),
	}
	rng := rand.New(rand.NewSource(77))
	s := New(nil)
	for _, net := range nets {
		for trial := 0; trial < 30; trial++ {
			keys := make([]simnet.Key, net.Nodes())
			for i := range keys {
				keys[i] = simnet.Key(rng.Intn(2))
			}
			m := simnet.MustNew(net, keys)
			s.Sort(m)
			if !m.IsSortedSnake() {
				t.Fatalf("%s: random 0-1 input unsorted", net.Name())
			}
		}
	}
}

func TestSortAdversarialInputs(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	s := New(nil)
	n := net.Nodes()
	inputs := [][]simnet.Key{
		make([]simnet.Key, n), // all equal
		func() []simnet.Key { // reverse sorted in snake order
			ks := make([]simnet.Key, n)
			for i := range ks {
				ks[i] = simnet.Key(n - i)
			}
			return ks
		}(),
		func() []simnet.Key { // already sorted
			ks := make([]simnet.Key, n)
			for i := range ks {
				ks[i] = simnet.Key(i)
			}
			return ks
		}(),
		func() []simnet.Key { // two distinct values interleaved
			ks := make([]simnet.Key, n)
			for i := range ks {
				ks[i] = simnet.Key(i % 2)
			}
			return ks
		}(),
	}
	for i, keys := range inputs {
		m := simnet.MustNew(net, keys)
		m.LoadSnake(keys)
		s.Sort(m)
		checkSortedPermutation(t, m, keys)
		_ = i
	}
}

// TestTheorem1PhaseCounts verifies the exact phase counts of Theorem 1:
// (r-1)^2 S_2 invocations and (r-1)(r-2) transposition sweeps.
func TestTheorem1PhaseCounts(t *testing.T) {
	cases := []struct {
		factor *graph.Graph
		r      int
	}{
		{graph.Path(3), 2}, {graph.Path(3), 3}, {graph.Path(3), 4},
		{graph.K2(), 2}, {graph.K2(), 4}, {graph.K2(), 6},
		{graph.Petersen(), 2}, {graph.Cycle(4), 3},
	}
	for _, c := range cases {
		net := product.MustNew(c.factor, c.r)
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 1))
		New(nil).Sort(m)
		clk := m.Clock()
		if clk.S2Phases != PredictedS2Phases(c.r) {
			t.Errorf("%s: S2Phases=%d want %d", net.Name(), clk.S2Phases, PredictedS2Phases(c.r))
		}
		if clk.SweepPhases != PredictedSweeps(c.r) {
			t.Errorf("%s: SweepPhases=%d want %d", net.Name(), clk.SweepPhases, PredictedSweeps(c.r))
		}
	}
}

// TestTheorem1RoundsHamiltonian: on Hamiltonian-labeled factors every
// sweep costs one round, so total rounds must equal
// (r-1)^2·S2rounds + (r-1)(r-2)·1 exactly.
func TestTheorem1RoundsHamiltonian(t *testing.T) {
	cases := []struct {
		factor *graph.Graph
		r      int
		engine sort2d.Engine
	}{
		{graph.Path(3), 3, sort2d.Shearsort{}},
		{graph.Path(4), 3, sort2d.Shearsort{}},
		{graph.Path(3), 4, sort2d.Shearsort{}},
		{graph.K2(), 5, sort2d.Opt4{}},
		{graph.Cycle(4), 3, sort2d.Shearsort{}},
		{graph.Path(3), 3, sort2d.SnakeOET{}},
	}
	for _, c := range cases {
		net := product.MustNew(c.factor, c.r)
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 5))
		New(c.engine).Sort(m)
		clk := m.Clock()
		want := PredictedS2Phases(c.r)*c.engine.Rounds(c.factor.N()) + PredictedSweeps(c.r)
		if clk.Rounds != want {
			t.Errorf("%s engine=%s: rounds=%d want %d (clock %+v)",
				net.Name(), c.engine.Name(), clk.Rounds, want, clk)
		}
	}
}

// TestMergeLemma3Counts verifies one merge along dimension k uses
// 2(k-2)+1 S_2 phases and 2(k-2) sweeps (Lemma 3).
func TestMergeLemma3Counts(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		net := product.MustNew(graph.Path(3), k)
		m := simnet.MustNew(net, randomKeys(net.Nodes(), 2))
		loadSlabsSorted(m, k)
		New(nil).Merge(m, k)
		clk := m.Clock()
		if k == 2 {
			if clk.S2Phases != 1 || clk.SweepPhases != 0 {
				t.Errorf("k=2: %+v", clk)
			}
			continue
		}
		if clk.S2Phases != PredictedMergeS2Phases(k) {
			t.Errorf("k=%d: S2Phases=%d want %d", k, clk.S2Phases, PredictedMergeS2Phases(k))
		}
		if clk.SweepPhases != PredictedMergeSweeps(k) {
			t.Errorf("k=%d: sweeps=%d want %d", k, clk.SweepPhases, PredictedMergeSweeps(k))
		}
		if !m.IsSortedSnake() {
			t.Errorf("k=%d: merge did not sort", k)
		}
	}
}

// loadSlabsSorted arranges the machine's current keys so that each slab
// [u]PG^k_{k-1} is sorted in its local snake order — the precondition of
// Merge. Keys are not changed as a multiset. Requires k == r.
func loadSlabsSorted(m *simnet.Machine, k int) {
	net := m.Net()
	n := net.N()
	subDims := make([]int, k-1)
	for i := range subDims {
		subDims[i] = i + 1
	}
	slabSize := net.BlockSize(subDims)
	keys := m.Keys()
	for u := 0; u < n; u++ {
		slab := make([]simnet.Key, 0, slabSize)
		base := net.SetDigit(0, k, u)
		for pos := 0; pos < slabSize; pos++ {
			slab = append(slab, keys[net.NodeInBlock(base, subDims, pos)])
		}
		sort.Slice(slab, func(i, j int) bool { return slab[i] < slab[j] })
		for pos := 0; pos < slabSize; pos++ {
			keys[net.NodeInBlock(base, subDims, pos)] = slab[pos]
		}
	}
	snake := make([]simnet.Key, len(keys))
	for pos := range snake {
		snake[pos] = keys[net.NodeAtSnake(pos)]
	}
	m.LoadSnake(snake)
}

// TestMergePaperExample runs the worked example of Figs. 12–15: N=3,
// k=3, merging A_0 = (0,4,4,5,5,7,8,8,9), A_1 = (1,4,5,5,5,6,7,7,8),
// A_2 = (0,0,1,1,1,2,3,4,9).
func TestMergePaperExample(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	m := simnet.MustNew(net, make([]simnet.Key, 27))
	slabs := [][]simnet.Key{
		{0, 4, 4, 5, 5, 7, 8, 8, 9},
		{1, 4, 5, 5, 5, 6, 7, 7, 8},
		{0, 0, 1, 1, 1, 2, 3, 4, 9},
	}
	subDims := []int{1, 2}
	for u, slab := range slabs {
		base := net.SetDigit(0, 3, u)
		for pos, key := range slab {
			id := net.NodeInBlock(base, subDims, pos)
			loadKey(m, id, key)
		}
	}
	New(nil).Merge(m, 3)
	want := []simnet.Key{0, 0, 0, 1, 1, 1, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 7, 7, 7, 8, 8, 8, 9, 9}
	got := m.SnakeKeys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paper example: snake pos %d = %d want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

// loadKey places a single key at a node by rebuilding the key slice;
// test-only convenience.
func loadKey(m *simnet.Machine, id int, key simnet.Key) {
	keys := m.Keys()
	keys[id] = key
	snake := make([]simnet.Key, len(keys))
	for pos := range snake {
		snake[pos] = keys[m.Net().NodeAtSnake(pos)]
	}
	m.LoadSnake(snake)
}

// TestLemma1DirtyWindow measures the dirty area after Step 3 (merge with
// the top-level clean skipped) on 0-1 inputs: it must never exceed N².
func TestLemma1DirtyWindow(t *testing.T) {
	cases := []struct {
		factor *graph.Graph
		r      int
	}{
		{graph.Path(3), 3},
		{graph.Path(4), 3},
		{graph.K2(), 4},
		{graph.Path(3), 4},
	}
	rng := rand.New(rand.NewSource(99))
	for _, c := range cases {
		net := product.MustNew(c.factor, c.r)
		n := net.N()
		s := New(nil)
		for trial := 0; trial < 40; trial++ {
			keys := make([]simnet.Key, net.Nodes())
			for i := range keys {
				keys[i] = simnet.Key(rng.Intn(2))
			}
			m := simnet.MustNew(net, keys)
			// Establish the merge precondition from scratch: full sorts
			// of the r-1 dimensional slabs via the sorter itself.
			prepareSlabs(s, m, c.r)
			m.ResetClock()
			s.MergeSkipTopClean(m, c.r)
			window := DirtyWindow(m.SnakeKeys())
			if window > n*n {
				t.Fatalf("%s trial %d: dirty window %d > N²=%d", net.Name(), trial, window, n*n)
			}
		}
	}
}

// prepareSlabs sorts each dimension-r slab in its local snake order
// using the machine's own operations (so the data placement is honest).
func prepareSlabs(s *Sorter, m *simnet.Machine, r int) {
	if r == 2 {
		return
	}
	// Sort dims {1,2} blocks, then merge along 3..r-1: afterwards every
	// dimension-r slab is snake-sorted.
	s.Engine.Sort(m, 1, 2, sort2d.AscendingAll)
	for k := 3; k < r; k++ {
		s.Merge(m, k)
	}
}

func TestMergeSkipTopCleanThenCleanEqualsSort(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	keys := randomKeys(27, 8)
	s := New(nil)

	m1 := simnet.MustNew(net, keys)
	s.Sort(m1)

	m2 := simnet.MustNew(net, keys)
	s.Engine.Sort(m2, 1, 2, sort2d.AscendingAll)
	s.MergeSkipTopClean(m2, 3)
	s.cleanDirty(m2, []int{1, 2, 3})

	k1, k2 := m1.Keys(), m2.Keys()
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("split execution differs at node %d: %d vs %d", i, k1[i], k2[i])
		}
	}
}

func TestSort1D(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(7), graph.Cycle(6), graph.CompleteBinaryTree(3)} {
		net := product.MustNew(g, 1)
		keys := randomKeys(net.Nodes(), 13)
		m := simnet.MustNew(net, keys)
		New(nil).Sort(m)
		checkSortedPermutation(t, m, keys)
	}
}

func TestObserverCalled(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	m := simnet.MustNew(net, randomKeys(27, 4))
	s := New(nil)
	var stages []string
	s.Observer = func(stage string, _ sort2d.Machine) { stages = append(stages, stage) }
	s.Sort(m)
	if len(stages) != 2 { // initial sort + merge along dim 3
		t.Errorf("observer called %d times want 2: %v", len(stages), stages)
	}
}

func TestDirtyWindow(t *testing.T) {
	cases := []struct {
		keys []simnet.Key
		want int
	}{
		{[]simnet.Key{0, 0, 1, 1}, 0},
		{[]simnet.Key{1, 0}, 2},
		{[]simnet.Key{0, 1, 0, 1}, 2},
		{[]simnet.Key{1, 1, 1}, 0},
		{[]simnet.Key{0, 0, 0}, 0},
		{[]simnet.Key{1, 0, 0, 0, 1}, 4},
		{nil, 0},
	}
	for _, c := range cases {
		if got := DirtyWindow(c.keys); got != c.want {
			t.Errorf("DirtyWindow(%v)=%d want %d", c.keys, got, c.want)
		}
	}
}

func TestDirtyWindowPanicsOnNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DirtyWindow([]simnet.Key{0, 2})
}

func TestSortPanicsOnShortDims(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	m := simnet.MustNew(net, randomKeys(9, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil).merge(m, []int{1}, false)
}

// Property-based: sorting any random permutation of distinct keys yields
// the identity in snake order.
func TestQuickSortPermutation(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	s := New(nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(27)
		keys := make([]simnet.Key, 27)
		for i, p := range perm {
			keys[i] = simnet.Key(p)
		}
		m := simnet.MustNew(net, keys)
		s.Sort(m)
		got := m.SnakeKeys()
		for i := range got {
			if got[i] != simnet.Key(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property-based: DirtyWindow is 0 exactly when the 0-1 sequence is
// sorted.
func TestQuickDirtyWindowZeroIffSorted(t *testing.T) {
	f := func(bits uint16, lenRaw uint8) bool {
		n := 1 + int(lenRaw)%16
		keys := make([]simnet.Key, n)
		sorted := true
		for i := range keys {
			keys[i] = simnet.Key(bits >> i & 1)
			if i > 0 && keys[i] < keys[i-1] {
				sorted = false
			}
		}
		return (DirtyWindow(keys) == 0) == sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSortGrid3x3x3(b *testing.B) {
	net := product.MustNew(graph.Path(3), 3)
	keys := randomKeys(27, 1)
	s := New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := simnet.MustNew(net, keys)
		s.Sort(m)
	}
}

func BenchmarkSortHypercube64(b *testing.B) {
	net := product.MustNew(graph.K2(), 6)
	keys := randomKeys(64, 1)
	s := New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := simnet.MustNew(net, keys)
		s.Sort(m)
	}
}

// TestSortRandomTopologies fuzzes the sorter over random connected
// factor graphs — the strongest version of the paper's "any product
// network" claim we can test.
func TestSortRandomTopologies(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		n := 3 + int(seed)%6
		g := graph.RandomConnected(n, int(seed)%4, seed)
		r := 2 + int(seed)%2
		net := product.MustNew(g, r)
		keys := randomKeys(net.Nodes(), seed)
		m := simnet.MustNew(net, keys)
		New(nil).Sort(m)
		checkSortedPermutation(t, m, keys)
		clk := m.Clock()
		if clk.S2Phases != PredictedS2Phases(r) || clk.SweepPhases != PredictedSweeps(r) {
			t.Errorf("seed %d (%s): phase counts off Theorem 1", seed, net.Name())
		}
	}
}

// TestSortRandomTreeFactors: random trees exercise the routed fallback
// with irregular shapes.
func TestSortRandomTreeFactors(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomTree(4+int(seed)%8, seed)
		net := product.MustNew(g, 2)
		keys := randomKeys(net.Nodes(), seed+100)
		m := simnet.MustNew(net, keys)
		New(nil).Sort(m)
		checkSortedPermutation(t, m, keys)
	}
}

// TestOddWeightMatchesBlockWeight holds the merge's direction table to
// its definition, the parity of product.Network.BlockWeight, for every
// node and every group of dimensions Step 4 uses, on homogeneous and
// heterogeneous radices (odd radices and radix 1 included).
func TestOddWeightMatchesBlockWeight(t *testing.T) {
	for _, net := range []*product.Network{
		product.MustNew(graph.K2(), 6),
		product.MustNew(graph.Path(3), 4),
		product.MustNewHetero([]*graph.Graph{graph.Path(5), graph.Cycle(4), graph.Path(3), graph.Path(1), graph.K2()}),
	} {
		for lo := 1; lo <= net.R(); lo++ {
			for hi := lo; hi <= net.R(); hi++ {
				var dims []int
				for d := lo; d <= hi; d++ {
					dims = append(dims, d)
				}
				odd := oddWeight(net, dims)
				for id := range odd {
					if want := net.BlockWeight(id, dims)%2 == 1; odd[id] != want {
						t.Fatalf("%s dims %v node %d: odd %v, want %v", net.Name(), dims, id, odd[id], want)
					}
				}
			}
		}
	}
}

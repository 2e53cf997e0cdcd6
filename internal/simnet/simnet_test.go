package simnet

import (
	"fmt"
	"math/rand"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
)

func seqKeys(n int) []Key {
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = Key(i)
	}
	return ks
}

func TestNewValidation(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	if _, err := New(net, make([]Key, 5)); err == nil {
		t.Error("wrong key count accepted")
	}
	m, err := New(net, seqKeys(9))
	if err != nil {
		t.Fatal(err)
	}
	if m.Key(4) != 4 {
		t.Error("keys not loaded")
	}
}

func TestKeysIsACopy(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	in := seqKeys(3)
	m := MustNew(net, in)
	in[0] = 99
	if m.Key(0) != 0 {
		t.Error("machine aliases caller's slice")
	}
	out := m.Keys()
	out[1] = 99
	if m.Key(1) != 1 {
		t.Error("Keys() aliases internal state")
	}
}

func TestCompareExchangeAdjacentCostsOneRound(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	m := MustNew(net, []Key{5, 1, 2, 0, 9, 8, 7, 6, 3, 4, 11, 10, 15, 14, 13, 12})
	// Pairs along dimension 1 between digits 0 and 1 for every row.
	var pairs [][2]int
	for row := 0; row < 4; row++ {
		pairs = append(pairs, [2]int{row * 4, row*4 + 1})
	}
	m.CompareExchange(pairs)
	c := m.Clock()
	if c.Rounds != 1 || c.ComparePhases != 1 || c.RoutedPhases != 0 {
		t.Errorf("clock=%+v want 1 round, 1 phase, 0 routed", c)
	}
	if m.Key(0) != 1 || m.Key(1) != 5 {
		t.Errorf("pair (0,1) not ordered: %d %d", m.Key(0), m.Key(1))
	}
	if m.Key(4) != 8 || m.Key(5) != 9 {
		t.Errorf("pair (4,5) reordered wrongly: %d %d", m.Key(4), m.Key(5))
	}
}

func TestCompareExchangeDirection(t *testing.T) {
	net := product.MustNew(graph.Path(2), 1)
	m := MustNew(net, []Key{3, 7})
	// (hi, lo) ordering: put the max at node 0.
	m.CompareExchange([][2]int{{1, 0}})
	if m.Key(0) != 7 || m.Key(1) != 3 {
		t.Errorf("descending pair failed: %d %d", m.Key(0), m.Key(1))
	}
}

func TestCompareExchangeRoutedCost(t *testing.T) {
	// Star factor: labels 1 and 2 are both leaves, two hops apart, so a
	// compare-exchange between them needs routing through the hub.
	net := product.MustNew(graph.Star(4), 1)
	m := MustNew(net, []Key{0, 9, 3, 5})
	m.CompareExchange([][2]int{{1, 2}})
	c := m.Clock()
	if c.RoutedPhases != 1 {
		t.Errorf("expected a routed phase, clock=%+v", c)
	}
	if c.Rounds < 2 {
		t.Errorf("routed phase cost %d rounds, want ≥2", c.Rounds)
	}
	if m.Key(1) != 3 || m.Key(2) != 9 {
		t.Error("routed compare-exchange did not order keys")
	}
}

func TestCompareExchangePanicsOnOverlap(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	m := MustNew(net, seqKeys(3))
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping pairs accepted")
		}
	}()
	m.CompareExchange([][2]int{{0, 1}, {1, 2}})
}

func TestCompareExchangePanicsOnMultiDim(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	m := MustNew(net, seqKeys(9))
	defer func() {
		if recover() == nil {
			t.Fatal("diagonal pair accepted")
		}
	}()
	m.CompareExchange([][2]int{{0, 4}}) // differs in both dimensions
}

func TestCompareExchangePanicsOnSelfPair(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	m := MustNew(net, seqKeys(3))
	defer func() {
		if recover() == nil {
			t.Fatal("self pair accepted")
		}
	}()
	m.CompareExchange([][2]int{{1, 1}})
}

func TestEmptyPhaseIsFree(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	m := MustNew(net, seqKeys(3))
	m.CompareExchange(nil)
	if c := m.Clock(); c.Rounds != 0 || c.ComparePhases != 0 {
		t.Errorf("empty phase charged: %+v", c)
	}
}

func TestSnakeKeysAndLoadSnake(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	m := MustNew(net, make([]Key, 9))
	want := []Key{10, 20, 30, 40, 50, 60, 70, 80, 90}
	m.LoadSnake(want)
	got := m.SnakeKeys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snake round trip failed at %d: %d", i, got[i])
		}
	}
	if !m.IsSortedSnake() {
		t.Error("sorted snake load reported unsorted")
	}
	m.LoadSnake([]Key{1, 2, 3, 4, 5, 4, 7, 8, 9})
	if m.IsSortedSnake() {
		t.Error("unsorted snake reported sorted")
	}
}

func TestBlockSnakeKeys(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	keys := make([]Key, 27)
	for i := range keys {
		keys[i] = Key(i)
	}
	m := MustNew(net, keys)
	dims := []int{1, 2}
	base := net.ID([]int{0, 0, 2})
	got := m.BlockSnakeKeys(base, dims)
	if len(got) != 9 {
		t.Fatalf("block size %d", len(got))
	}
	// First key of the block should be the base node's key.
	if got[0] != m.Key(base) {
		t.Errorf("block snake pos 0 = %d want key at base %d", got[0], m.Key(base))
	}
	// Monotone block check helper agrees with a manual scan.
	if m.IsBlockSortedSnake(base, dims) != isNonDecreasing(got) {
		t.Error("IsBlockSortedSnake disagrees with manual check")
	}
}

func isNonDecreasing(ks []Key) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			return false
		}
	}
	return true
}

func TestClockAttribution(t *testing.T) {
	net := product.MustNew(graph.Path(4), 1)
	m := MustNew(net, seqKeys(4))
	m.BeginS2()
	m.CompareExchange([][2]int{{0, 1}})
	m.EndS2()
	m.CompareExchange([][2]int{{2, 3}})
	c := m.Clock()
	if c.S2Rounds != 1 || c.SweepRounds != 1 || c.Rounds != 2 {
		t.Errorf("attribution wrong: %+v", c)
	}
	m.AddS2Phase()
	m.AddSweepPhase()
	c = m.Clock()
	if c.S2Phases != 1 || c.SweepPhases != 1 {
		t.Errorf("phase counters wrong: %+v", c)
	}
	m.ResetClock()
	if m.Clock() != (Clock{}) {
		t.Error("ResetClock did not zero")
	}
}

func TestRoutedCostCached(t *testing.T) {
	net := product.MustNew(graph.CompleteBinaryTree(3), 2)
	keys := make([]Key, net.Nodes())
	for i := range keys {
		keys[i] = Key(net.Nodes() - i)
	}
	m := MustNew(net, keys)
	// Same pairing pattern twice must charge the same cost both times.
	var pairs [][2]int
	for row := 0; row < 7; row++ {
		pairs = append(pairs, [2]int{row * 7, row*7 + 2}) // labels 0 and 2: two hops in cbt3
	}
	m.CompareExchange(pairs)
	first := m.Clock().Rounds
	m.CompareExchange(pairs)
	second := m.Clock().Rounds - first
	if first != second {
		t.Errorf("cost not deterministic: %d then %d", first, second)
	}
	if first < 2 {
		t.Errorf("tree exchange cost %d, want ≥2", first)
	}
}

func BenchmarkCompareExchangePhase(b *testing.B) {
	net := product.MustNew(graph.Path(8), 3)
	keys := make([]Key, net.Nodes())
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	m := MustNew(net, keys)
	var pairs [][2]int
	for b0 := 0; b0 < net.Nodes(); b0 += 8 {
		for x := 0; x+1 < 8; x += 2 {
			pairs = append(pairs, [2]int{b0 + x, b0 + x + 1})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CompareExchange(pairs)
	}
}

func TestIdleRoundAttribution(t *testing.T) {
	net := product.MustNew(graph.Path(3), 1)
	m := MustNew(net, seqKeys(3))
	m.BeginS2()
	m.IdleRound()
	m.EndS2()
	m.IdleRound()
	c := m.Clock()
	if c.Rounds != 2 || c.S2Rounds != 1 || c.SweepRounds != 1 {
		t.Errorf("idle attribution wrong: %+v", c)
	}
}

func TestNetAndPlanAccessors(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	m := MustNew(net, seqKeys(9))
	if m.Net() != net {
		t.Error("Net() wrong")
	}
	if m.Plan() == nil || m.Plan() != m.Plan() {
		t.Error("Plan() not cached")
	}
}

func TestHeteroPhaseCostPerDimension(t *testing.T) {
	// Dimension 1 = path (adjacent pairs cost 1); dimension 2 = star
	// (leaf-to-leaf exchange costs more). The machine must price each
	// dimension with its own factor.
	net := product.MustNewHetero([]*graph.Graph{graph.Path(4), graph.Star(4)})
	keys := make([]Key, net.Nodes())
	for i := range keys {
		keys[i] = Key(net.Nodes() - i)
	}
	m := MustNew(net, keys)
	// Dim-1 adjacent pair: 1 round.
	m.CompareExchange([][2]int{{0, 1}})
	if m.Clock().Rounds != 1 {
		t.Fatalf("path-dim pair cost %d", m.Clock().Rounds)
	}
	// Dim-2 pair between star labels 1 and 2 (two hops through hub).
	a := net.ID([]int{0, 1})
	b := net.ID([]int{0, 2})
	m.CompareExchange([][2]int{{a, b}})
	c := m.Clock()
	if c.Rounds < 3 || c.RoutedPhases != 1 {
		t.Errorf("star-dim pair not routed: %+v", c)
	}
}

// TestExchangeCostCacheLargeFactor is a regression test for the routed-
// exchange cost cache: keys used to encode factor node ids with byte()
// casts, so on factors with ≥256 nodes the pair (2,260) aliased the pair
// (2,4) and the cache returned the wrong (far too small) routing charge.
func TestExchangeCostCacheLargeFactor(t *testing.T) {
	net := product.MustNew(graph.Path(300), 1)
	m := MustNew(net, make([]Key, net.Nodes()))
	// Populate the cache with a short routed exchange: nodes 2 and 4 on
	// the path are two hops apart.
	m.CompareExchange([][2]int{{2, 4}})
	short := m.Clock().Rounds
	if short < 2 {
		t.Fatalf("exchange (2,4) charged %d rounds, want >= 2", short)
	}
	m.ResetClock()
	// The pair (2,260) is 258 hops apart. Under byte truncation its cache
	// signature collided with (2,4) and it charged the short cost.
	m.CompareExchange([][2]int{{2, 260}})
	far := m.Clock().Rounds
	if far <= short {
		t.Fatalf("exchange (2,260) charged %d rounds, want > %d (cache key collision)", far, short)
	}
	if want := net.Dist(2, 260); far < want {
		t.Errorf("exchange (2,260) charged %d rounds, want >= distance %d", far, want)
	}
}

// panicMessage runs f and returns what it panicked with, as a string
// ("" when it returned normally).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestPhaseCostPanics pins each check PhaseCost makes and its message:
// a degenerate pair, two pairs sharing a node, a pair whose labels
// differ in more than one dimension, and a node outside the network.
func TestPhaseCostPanics(t *testing.T) {
	net := product.MustNew(graph.Path(3), 3)
	cases := []struct {
		name  string
		pairs [][2]int
		want  string
	}{
		{"degenerate", [][2]int{{0, 1}, {4, 4}}, "simnet: degenerate compare-exchange pair"},
		{"overlapping", [][2]int{{0, 1}, {1, 2}}, "simnet: overlapping compare-exchange pairs"},
		{"overlapping-reversed", [][2]int{{3, 4}, {5, 4}}, "simnet: overlapping compare-exchange pairs"},
		{"two-dims", [][2]int{{0, 1}, {3, 7}}, "simnet: nodes 3 and 7 differ in more than one dimension"},
		{"carry", [][2]int{{2, 3}}, "simnet: nodes 2 and 3 differ in more than one dimension"},
		{"out-of-range", [][2]int{{26, 27}}, "simnet: pair (26, 27) outside the 27-node network"},
		{"negative", [][2]int{{-1, 0}}, "simnet: pair (-1, 0) outside the 27-node network"},
	}
	c := NewCostModel()
	for _, tc := range cases {
		got := panicMessage(func() { c.PhaseCost(net, tc.pairs) })
		if got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
		// A rejected phase leaves no stamps behind: the same nodes pass
		// in the next phase.
		if cost, dim := c.PhaseCost(net, [][2]int{{0, 1}, {4, 5}}); cost != 1 || dim != 1 {
			t.Errorf("%s: next phase priced (%d, %d), want (1, 1)", tc.name, cost, dim)
		}
	}
}

// TestPhaseCostDim: dim is the one dimension every pair differs in, 0
// for a phase that mixes dimensions, and routed phases report it too.
func TestPhaseCostDim(t *testing.T) {
	c := NewCostModel()
	grid := product.MustNew(graph.Path(3), 3)
	for _, tc := range []struct {
		pairs           [][2]int
		wantCost, wantD int
	}{
		{[][2]int{{0, 1}, {3, 4}}, 1, 1},
		{[][2]int{{0, 3}, {1, 4}, {9, 12}}, 1, 2},
		{[][2]int{{4, 13}}, 1, 3},
		{[][2]int{{0, 1}, {3, 6}}, 1, 0},
		{[][2]int{{0, 2}}, 3, 1}, // routed: path symbols 0 and 2 swap over two hops
	} {
		cost, dim := c.PhaseCost(grid, tc.pairs)
		if cost != tc.wantCost || dim != tc.wantD {
			t.Errorf("%v: (cost, dim) = (%d, %d), want (%d, %d)", tc.pairs, cost, dim, tc.wantCost, tc.wantD)
		}
	}
}

// TestPhaseCostZeroAlloc pins the single pass: once the model has sized
// its node stamps, pricing a phase of edges allocates nothing.
func TestPhaseCostZeroAlloc(t *testing.T) {
	net := product.MustNew(graph.K2(), 10)
	pairs := make([][2]int, 0, net.Nodes()/2)
	for a := 0; a < net.Nodes(); a++ {
		if b := a ^ 1<<4; a < b {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	c := NewCostModel()
	c.PhaseCost(net, pairs) // sizes the stamps
	allocs := testing.AllocsPerRun(50, func() {
		if cost, dim := c.PhaseCost(net, pairs); cost != 1 || dim != 5 {
			t.Fatalf("(cost, dim) = (%d, %d), want (1, 5)", cost, dim)
		}
	})
	if allocs != 0 {
		t.Fatalf("PhaseCost on %d edges allocates %.1f per phase, want 0", len(pairs), allocs)
	}
}

package productsort

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"productsort/internal/baseline"
	"productsort/internal/schedule"
	"productsort/internal/workload"
)

func TestNewFamilyConstructors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Network, error)
		nodes int
	}{
		{"circulant", func() (*Network, error) { return CirculantProduct(8, []int{1, 3}, 2) }, 64},
		{"wheel", func() (*Network, error) { return WheelProduct(6, 2) }, 36},
		{"caterpillar", func() (*Network, error) { return CaterpillarProduct(3, []int{1, 0, 1}, 2) }, 25},
		{"kautz", func() (*Network, error) { return KautzProduct(2, 1, 2) }, 36},
	}
	for _, c := range cases {
		nw, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nw.Nodes() != c.nodes {
			t.Errorf("%s: nodes=%d want %d", c.name, nw.Nodes(), c.nodes)
		}
		keys := workload.Uniform(nw.Nodes(), 3)
		res, err := Sort(nw, keys)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !IsSorted(res.Keys) {
			t.Errorf("%s: unsorted", c.name)
		}
	}
}

func TestNewFamilyValidation(t *testing.T) {
	bad := []func() (*Network, error){
		func() (*Network, error) { return CirculantProduct(2, []int{1}, 2) },
		func() (*Network, error) { return CirculantProduct(6, []int{0}, 2) },
		func() (*Network, error) { return WheelProduct(3, 2) },
		func() (*Network, error) { return CaterpillarProduct(2, []int{1}, 2) },
		func() (*Network, error) { return CaterpillarProduct(1, []int{-1}, 2) },
		func() (*Network, error) { return KautzProduct(1, 1, 2) },
	}
	for i, f := range bad {
		if _, err := f(); err == nil {
			t.Errorf("case %d: invalid constructor accepted", i)
		}
	}
}

func TestRelabelDilation3(t *testing.T) {
	nw := mustNet(MeshConnectedTrees(4, 2)) // 15-node tree factor
	improved := RelabelDilation3(nw)
	keys := workload.Uniform(nw.Nodes(), 5)
	resA, err := Sort(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Sort(improved, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(resA.Keys) || !IsSorted(resB.Keys) {
		t.Fatal("sort failed")
	}
	// Dilation-3 caps the per-pair distance, but congestion decides the
	// measured sweep cost, so neither labeling dominates the other; the
	// guarantee is only "within a constant of each other" (the labeling
	// ablation experiment quantifies this against shuffled labels).
	if resB.Rounds > 2*resA.Rounds || resA.Rounds > 2*resB.Rounds {
		t.Errorf("labelings differ by more than 2x: %d vs %d rounds", resB.Rounds, resA.Rounds)
	}
	// Hamiltonian networks are returned unchanged.
	h := mustNet(Grid(4, 2))
	if RelabelDilation3(h) != h {
		t.Error("Hamiltonian factor was relabeled")
	}
}

func TestSortMessagePassing(t *testing.T) {
	for _, nw := range []*Network{
		mustNet(Grid(3, 3)),
		mustNet(Hypercube(5)),
		mustNet(MeshConnectedTrees(3, 2)),
	} {
		keys := workload.Uniform(nw.Nodes(), 21)
		ref, err := Sort(nw, keys)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SortMessagePassing(nw, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Keys {
			if got.Keys[i] != ref.Keys[i] {
				t.Fatalf("%s: SPMD diverged at %d", nw.Name(), i)
			}
		}
		if nw.HamiltonianFactor() && got.Relays != 0 {
			t.Errorf("%s: unexpected relays %d", nw.Name(), got.Relays)
		}
		if !nw.HamiltonianFactor() && got.Relays == 0 {
			t.Errorf("%s: expected relayed exchanges", nw.Name())
		}
		if got.Messages == 0 {
			t.Errorf("%s: no messages recorded", nw.Name())
		}
	}
	if _, err := SortMessagePassing(mustNet(Grid(3, 2)), make([]Key, 5)); err == nil {
		t.Error("wrong key count accepted")
	}
}

func TestExtractScheduleAndApply(t *testing.T) {
	nw := mustNet(Grid(3, 3))
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if s.Inputs() != 27 || s.Depth() <= 0 || s.Size() <= 0 {
		t.Fatalf("degenerate schedule: %d/%d/%d", s.Inputs(), s.Depth(), s.Size())
	}
	keys := workload.Permutation(27, 9)
	s.Apply(keys)
	if !IsSorted(keys) {
		t.Fatal("schedule replay failed to sort")
	}
	if _, err := ExtractSchedule(nw, "bogus"); err == nil {
		t.Error("bogus engine accepted")
	}
}

func TestScheduleDepthEqualsSortRounds(t *testing.T) {
	// For Hamiltonian factors with no empty phases, the schedule depth
	// equals the machine's round count.
	nw := mustNet(Grid(3, 3))
	s, err := ExtractSchedule(nw, "shearsort")
	if err != nil {
		t.Fatal(err)
	}
	sorter, _ := NewSorter(WithEngine("shearsort"))
	res, err := sorter.Sort(nw, workload.Uniform(27, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != res.Rounds {
		t.Errorf("schedule depth %d != sort rounds %d", s.Depth(), res.Rounds)
	}
}

func TestSortBlocks(t *testing.T) {
	nw := mustNet(Hypercube(5))
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 3, 16} {
		keys := workload.Uniform(32*bs, int64(bs))
		want := append([]Key(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		st, err := s.SortBlocks(keys, bs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("block=%d: wrong output at %d", bs, i)
			}
		}
		if st.Rounds != s.Depth() {
			t.Errorf("block=%d: rounds %d != depth %d", bs, st.Rounds, s.Depth())
		}
	}
	if _, err := s.SortBlocks(make([]Key, 10), 3); err == nil {
		t.Error("bad key count accepted")
	}
}

func TestRoutePermutation(t *testing.T) {
	nw := mustNet(Grid(4, 2))
	perm := make([]int, 16)
	for i := range perm {
		perm[i] = 15 - i
	}
	st, err := nw.RoutePermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < nw.Diameter() {
		t.Errorf("reversal routed in %d rounds, below diameter %d", st.Rounds, nw.Diameter())
	}
	if st.TotalHops <= 0 || st.MaxQueue < 1 {
		t.Errorf("stats degenerate: %+v", st)
	}
	if _, err := nw.RoutePermutation([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := nw.RoutePermutation(make([]int, 16)); err == nil {
		t.Error("non-permutation accepted")
	}
}

// scheduleJSON is the decoded form of Schedule.MarshalJSON.
type scheduleJSON struct {
	Network string     `json:"network"`
	Inputs  int        `json:"inputs"`
	Phases  [][][2]int `json:"phases"`
}

func decodeSchedule(t *testing.T, s *Schedule) scheduleJSON {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var dec scheduleJSON
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatalf("bad JSON %.40s: %v", data, err)
	}
	return dec
}

// scheduleNets spans every factor family, a rectangular grid and a
// hypercube whose program has idle rounds (K2^6).
func scheduleNets() []*Network {
	return []*Network{
		mustNet(Grid(3, 2)), mustNet(Grid(3, 3)), mustNet(Grid(4, 3)),
		mustNet(Hypercube(4)), mustNet(Hypercube(6)), mustNet(Torus(4, 2)),
		mustNet(MeshConnectedTrees(3, 2)), mustNet(PetersenCube(2)),
		mustNet(RectGrid(8, 4, 2)),
	}
}

func mustSchedule(t *testing.T, nw *Network) *Schedule {
	t.Helper()
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduleMarshalJSON: the JSON names the schedule's network and
// carries Inputs, Depth and Size. Depth counts exchange phases only:
// K2^6's program also has idle rounds.
func TestScheduleMarshalJSON(t *testing.T) {
	for _, nw := range scheduleNets() {
		s := mustSchedule(t, nw)
		dec := decodeSchedule(t, s)
		if dec.Network != nw.Name() || dec.Inputs != nw.Nodes() || s.Inputs() != nw.Nodes() {
			t.Fatalf("%s: header %q/%d, inputs %d", nw.Name(), dec.Network, dec.Inputs, s.Inputs())
		}
		if len(dec.Phases) != s.Depth() {
			t.Errorf("%s: %d phases, depth %d", nw.Name(), len(dec.Phases), s.Depth())
		}
		size := 0
		for _, ph := range dec.Phases {
			size += len(ph)
		}
		if size != s.Size() {
			t.Errorf("%s: %d comparators, size %d", nw.Name(), size, s.Size())
		}
	}
}

// TestExtractValidates: every extracted schedule is non-degenerate and
// each phase is a set of disjoint, in-range, non-degenerate pairs.
func TestExtractValidates(t *testing.T) {
	for _, nw := range scheduleNets() {
		s := mustSchedule(t, nw)
		if s.Inputs() <= 0 || s.Depth() <= 0 || s.Size() <= 0 {
			t.Fatalf("%s: degenerate schedule", nw.Name())
		}
		dec := decodeSchedule(t, s)
		for i, ph := range dec.Phases {
			busy := make(map[int]bool, 2*len(ph))
			for _, pr := range ph {
				lo, hi := pr[0], pr[1]
				if lo < 0 || hi < 0 || lo >= dec.Inputs || hi >= dec.Inputs || lo == hi || busy[lo] || busy[hi] {
					t.Fatalf("%s phase %d: invalid pair %v", nw.Name(), i, pr)
				}
				busy[lo], busy[hi] = true, true
			}
		}
	}
}

// TestNodePhasesMatchesSchedule: the JSON phases are the compiled
// program's exchange phases with every node id mapped to its snake
// position.
func TestNodePhasesMatchesSchedule(t *testing.T) {
	for _, nw := range scheduleNets() {
		s := mustSchedule(t, nw)
		dec := decodeSchedule(t, s)
		node := s.prog.Phases()
		if len(node) != len(dec.Phases) {
			t.Fatalf("%s: %d phases, program has %d", nw.Name(), len(dec.Phases), len(node))
		}
		for i, ph := range dec.Phases {
			if len(ph) != len(node[i]) {
				t.Fatalf("%s phase %d: %d pairs, program has %d", nw.Name(), i, len(ph), len(node[i]))
			}
			for j, pr := range ph {
				want := [2]int{nw.net.SnakePos(node[i][j][0]), nw.net.SnakePos(node[i][j][1])}
				if pr != want {
					t.Fatalf("%s phase %d pair %d: %v, want %v", nw.Name(), i, j, pr, want)
				}
			}
		}
	}
}

// TestScheduleJSONNamesOwnNetwork: structurally identical networks
// share one cached program, but each schedule's JSON names the network
// it was extracted from, not the one the program was compiled for.
func TestScheduleJSONNamesOwnNetwork(t *testing.T) {
	cube, err := ExtractSchedule(mustNet(Hypercube(3)), "auto")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ExtractSchedule(mustNet(Grid(2, 3)), "auto")
	if err != nil {
		t.Fatal(err)
	}
	if cube.prog != grid.prog {
		t.Fatal("Hypercube(3) and Grid(2, 3) do not share a cached program")
	}
	for _, c := range []struct {
		s    *Schedule
		want string
	}{{cube, "K2^3"}, {grid, "path2^3"}} {
		if got := decodeSchedule(t, c.s).Network; got != c.want {
			t.Errorf("JSON names %q, want %q", got, c.want)
		}
	}
}

// TestScheduleDeterministic: the schedule is a function of the network
// alone; a fresh, uncached compilation encodes to the same bytes.
func TestScheduleDeterministic(t *testing.T) {
	nw := mustNet(Grid(4, 3))
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := schedule.CompileUncached(nw.net, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&Schedule{nw: nw, prog: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two compilations of one network encode differently")
	}
}

// TestScheduleZeroOneExhaustive: Apply is a sorting network — exhaust
// the zero-one principle on small sizes.
func TestScheduleZeroOneExhaustive(t *testing.T) {
	for _, nw := range []*Network{
		mustNet(Hypercube(2)), mustNet(Hypercube(3)), mustNet(Hypercube(4)),
		mustNet(Grid(3, 2)), mustNet(Grid(4, 2)),
	} {
		s, err := ExtractSchedule(nw, "auto")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]Key, s.Inputs())
		for mask := 0; mask < 1<<len(keys); mask++ {
			for i := range keys {
				keys[i] = Key(mask >> i & 1)
			}
			s.Apply(keys)
			if !IsSorted(keys) {
				t.Fatalf("%s: schedule fails 0-1 input %b", nw.Name(), mask)
			}
		}
	}
}

// TestScheduleRandomInputs: Apply agrees with slices.Sort, duplicates
// and both extremes included (MaxInt64 is the batch paths' padding
// sentinel).
func TestScheduleRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nw := range []*Network{
		mustNet(Grid(3, 3)), mustNet(Hypercube(6)), mustNet(PetersenCube(2)),
		mustNet(MeshConnectedTrees(3, 2)),
	} {
		s, err := ExtractSchedule(nw, "auto")
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			keys := make([]Key, s.Inputs())
			for i := range keys {
				keys[i] = Key(rng.Intn(100))
			}
			keys[rng.Intn(len(keys))] = math.MinInt64
			keys[rng.Intn(len(keys))] = math.MaxInt64
			want := slices.Clone(keys)
			slices.Sort(want)
			s.Apply(keys)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s trial %d: wrong output", nw.Name(), trial)
			}
		}
	}
}

func TestApplyPanicsOnWrongLength(t *testing.T) {
	s, err := ExtractSchedule(mustNet(Hypercube(3)), "auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{7, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d keys accepted by an 8-input schedule", n)
				}
			}()
			s.Apply(make([]Key, n))
		}()
	}
}

// TestScheduleDepthMatchesTheorem1: for Hamiltonian factors every phase
// is one round, so the depth is Theorem 1's round count less the idle
// rounds, and equals it when no phase was empty.
func TestScheduleDepthMatchesTheorem1(t *testing.T) {
	for _, c := range []struct {
		nw     *Network
		engine string
		exact  bool
	}{
		{mustNet(Grid(3, 3)), "shearsort", true},
		{mustNet(Hypercube(5)), "opt4", false},
	} {
		s, err := ExtractSchedule(c.nw, c.engine)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.nw.PredictedRounds(c.engine)
		if err != nil {
			t.Fatal(err)
		}
		if s.Depth() > want || (c.exact && s.Depth() != want) {
			t.Errorf("%s: depth %d, Theorem 1 rounds %d", c.nw.Name(), s.Depth(), want)
		}
	}
}

// TestHypercubeScheduleVsBatcher compares sizes on the hypercube: the
// generalized schedule is bigger than Batcher's odd-even merge sort by
// a constant factor, never asymptotically.
func TestHypercubeScheduleVsBatcher(t *testing.T) {
	for _, r := range []int{3, 5, 7} {
		s, err := ExtractSchedule(mustNet(Hypercube(r)), "auto")
		if err != nil {
			t.Fatal(err)
		}
		oem := baseline.OddEvenMergeNetwork(1 << r)
		if ratio := float64(s.Size()) / float64(oem.Size()); ratio > 12 {
			t.Errorf("r=%d: schedule size %d vs OEM %d (ratio %.1f too large)", r, s.Size(), oem.Size(), ratio)
		}
	}
}

func TestDOTOutputs(t *testing.T) {
	nw := mustNet(Grid(2, 2))
	if out := nw.DOT(); len(out) == 0 || out[0] != 'g' {
		t.Errorf("DOT: %.30s", out)
	}
	if out := nw.FactorDOT(); len(out) == 0 {
		t.Error("FactorDOT empty")
	}
	if nw.FactorSize() != 2 {
		t.Error("FactorSize wrong")
	}
}

func TestRenderWrongLength(t *testing.T) {
	nw := mustNet(Grid(2, 2))
	if out := nw.Render(make([]Key, 3)); out == "" {
		t.Error("no diagnostic for wrong length")
	}
}

func TestMergeSortedAndSortSequence(t *testing.T) {
	got, err := MergeSorted([][]Key{
		{0, 4, 4, 5, 5, 7, 8, 8, 9},
		{1, 4, 5, 5, 5, 6, 7, 7, 8},
		{0, 0, 1, 1, 1, 2, 3, 4, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(got) || len(got) != 27 {
		t.Fatalf("MergeSorted: %v", got)
	}
	keys := workload.Uniform(64, 9)
	sorted, err := SortSequence(keys, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(sorted) {
		t.Fatal("SortSequence failed")
	}
	if _, err := MergeSorted([][]Key{{1}}); err == nil {
		t.Error("single sequence accepted")
	}
	if _, err := SortSequence(keys, 3, 3); err == nil {
		t.Error("wrong size accepted")
	}
}

package blocksort

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
)

// compile returns the full-sort program of PG_r over g.
func compile(t testing.TB, g *graph.Graph, r int) *schedule.Program {
	t.Helper()
	prog, err := schedule.Compile(product.MustNew(g, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// unpruned returns prog with every comparator in its executed stream:
// the reference the pruning pass is measured against.
func unpruned(t testing.TB, prog *schedule.Program) *schedule.Program {
	t.Helper()
	all := make([]int32, prog.Size())
	for i := range all {
		all[i] = int32(i)
	}
	ref, err := prog.WithExecuted(all)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func randomKeys(n int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = Key(rng.Intn(1000))
	}
	return ks
}

func isSorted(ks []Key) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			return false
		}
	}
	return true
}

func TestSortValidation(t *testing.T) {
	prog := compile(t, graph.K2(), 3)
	if _, err := Sort(prog, make([]Key, 8), 0); err == nil {
		t.Error("block size 0 accepted")
	}
	if _, err := Sort(prog, make([]Key, 9), 2); err == nil {
		t.Error("wrong key count accepted")
	}
}

func TestBlockSizeOneEqualsSchedule(t *testing.T) {
	prog := compile(t, graph.Path(3), 2)
	keys := randomKeys(9, 1)
	viaBlocks := append([]Key(nil), keys...)
	viaApply := append([]Key(nil), keys...)
	if _, err := Sort(prog, viaBlocks, 1); err != nil {
		t.Fatal(err)
	}
	if err := schedule.RunBatchColumnar(prog, [][]Key{viaApply}, 1, nil); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if viaBlocks[i] != viaApply[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestSortsAcrossNetworksAndBlockSizes(t *testing.T) {
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(3), 3}, {graph.K2(), 5}, {graph.Petersen(), 2},
		{graph.CompleteBinaryTree(3), 2}, {graph.Cycle(4), 3},
	}
	for _, c := range cfgs {
		prog := compile(t, c.g, c.r)
		name := prog.Net().Name()
		for _, bs := range []int{1, 2, 4, 7, 16} {
			keys := randomKeys(prog.Nodes()*bs, int64(bs))
			want := append([]Key(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			st, err := Sort(prog, keys, bs)
			if err != nil {
				t.Fatal(err)
			}
			if !isSorted(keys) {
				t.Fatalf("%s block=%d: unsorted", name, bs)
			}
			for i := range keys {
				if keys[i] != want[i] {
					t.Fatalf("%s block=%d: multiset changed", name, bs)
				}
			}
			if depth := prog.Clock().ComparePhases; st.Rounds != depth {
				t.Errorf("%s block=%d: rounds %d != schedule depth %d", name, bs, st.Rounds, depth)
			}
			executed := prog.Executed()
			if st.MergeSplits != executed {
				t.Errorf("%s block=%d: merge-splits %d != executed stream %d", name, bs, st.MergeSplits, executed)
			}
			if st.KeysMoved != 2*bs*executed {
				t.Errorf("%s block=%d: keys moved %d", name, bs, st.KeysMoved)
			}
		}
	}
}

// TestRoundsIndependentOfBlockSize is the headline property: scaling
// keys-per-processor leaves the parallel round count untouched.
func TestRoundsIndependentOfBlockSize(t *testing.T) {
	prog := compile(t, graph.Path(4), 3)
	var prev int
	for i, bs := range []int{1, 8, 64} {
		keys := randomKeys(prog.Nodes()*bs, 9)
		st, err := Sort(prog, keys, bs)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Rounds != prev {
			t.Fatalf("rounds changed with block size: %d vs %d", st.Rounds, prev)
		}
		prev = st.Rounds
	}
}

func TestDuplicatesAndExtremes(t *testing.T) {
	prog := compile(t, graph.K2(), 4)
	keys := make([]Key, 16*4)
	extremes := []Key{math.MinInt64, 0, math.MaxInt64}
	for i := range keys {
		keys[i] = extremes[i%3]
	}
	if _, err := Sort(prog, keys, 4); err != nil {
		t.Fatal(err)
	}
	if !isSorted(keys) {
		t.Fatal("duplicates broke blocksort")
	}
	// All-equal input.
	for i := range keys {
		keys[i] = 7
	}
	if _, err := Sort(prog, keys, 4); err != nil {
		t.Fatal(err)
	}
	if !isSorted(keys) {
		t.Fatal("constant input broke blocksort")
	}
}

func TestMergeSplitUnit(t *testing.T) {
	lo := []Key{1, 5, 9}
	hi := []Key{2, 3, 10}
	mergeSplit(lo, hi, make([]Key, 6))
	want := [][]Key{{1, 2, 3}, {5, 9, 10}}
	for i := range lo {
		if lo[i] != want[0][i] || hi[i] != want[1][i] {
			t.Fatalf("mergeSplit: lo=%v hi=%v", lo, hi)
		}
	}
}

// Property: blocksort equals the standard library sort.
func TestQuickBlocksort(t *testing.T) {
	prog := compile(t, graph.Path(3), 2)
	f := func(seed int64, bsRaw uint8) bool {
		bs := 1 + int(bsRaw)%8
		keys := randomKeys(9*bs, seed)
		want := append([]Key(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if _, err := Sort(prog, keys, bs); err != nil {
			return false
		}
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBlocksort64x16(b *testing.B) {
	prog := compile(b, graph.K2(), 6)
	keys := randomKeys(64*16, 1)
	buf := make([]Key, len(keys))
	b.SetBytes(int64(len(keys) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		if _, err := Sort(prog, buf, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSortProgramMatchesScheduleSort: merge-splits over the program's
// executed stream give the same blocks, byte for byte, as merge-splits
// over the full schedule (every comparator, the unpruned reference):
// both sort, and the sorted blocked output is unique (THEORY.md §8).
func TestSortProgramMatchesScheduleSort(t *testing.T) {
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.K2(), 4}, {graph.K2(), 6}, {graph.Path(3), 3}, {graph.Path(4), 3},
		{graph.Petersen(), 2}, {graph.CompleteBinaryTree(3), 2},
	}
	for _, c := range cfgs {
		prog := compile(t, c.g, c.r)
		ref := unpruned(t, prog)
		executed := prog.Executed()
		if executed >= prog.Size() {
			t.Errorf("%s: pass dropped nothing (%d of %d)", prog.Net().Name(), executed, prog.Size())
		}
		for _, bs := range []int{1, 3, 8} {
			keys := randomKeys(prog.Nodes()*bs, int64(7*bs))
			// Duplicates and both extremes, MaxInt64 being the padding
			// sentinel of the batch paths.
			keys[0], keys[1], keys[2] = math.MinInt64, math.MaxInt64, keys[3]
			got, want := slices.Clone(keys), slices.Clone(keys)
			st, err := Sort(prog, got, bs)
			if err != nil {
				t.Fatal(err)
			}
			stRef, err := Sort(ref, want, bs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s block=%d: pruned replay differs from the unpruned reference", prog.Net().Name(), bs)
			}
			if !isSorted(got) {
				t.Fatalf("%s block=%d: unsorted", prog.Net().Name(), bs)
			}
			if st.MergeSplits != executed || stRef.MergeSplits != prog.Size() {
				t.Errorf("%s block=%d: merge-splits %d/%d, want executed %d / size %d",
					prog.Net().Name(), bs, st.MergeSplits, stRef.MergeSplits, executed, prog.Size())
			}
			if st.Rounds != stRef.Rounds {
				t.Errorf("%s block=%d: rounds %d != reference %d", prog.Net().Name(), bs, st.Rounds, stRef.Rounds)
			}
		}
	}
}

// TestExecutedStreamSortsEveryBlockedZeroOneInput is the exhaustive 0-1
// check of block sort over the executed stream (THEORY.md §8): every
// input of sorted 0-1 blocks of size k is a count vector in {0..k}^n
// (block p holds k−c_p zeros, then c_p ones), and each one must come
// out globally sorted. The executed streams are the staged ones, which
// drop more than the known-order pass alone (26 of its 30 on K₂³, 33 of
// 36 on path3²).
func TestExecutedStreamSortsEveryBlockedZeroOneInput(t *testing.T) {
	const k = 3
	for _, tc := range []struct {
		prog     *schedule.Program
		executed int
	}{{compile(t, graph.K2(), 3), 26}, {compile(t, graph.Path(3), 2), 33}} {
		prog, n := tc.prog, tc.prog.Nodes()
		if prog.Executed() != tc.executed {
			t.Fatalf("%s: executes %d comparators, want %d", prog.Net().Name(), prog.Executed(), tc.executed)
		}
		comps := prog.LoweredComparators()
		counts := make([]int, n)
		keys := make([]Key, n*k)
		buf := make([]Key, 2*k)
		for done := false; !done; {
			for p, c := range counts {
				for i := 0; i < k; i++ {
					keys[p*k+i] = 0
					if i >= k-c {
						keys[p*k+i] = 1
					}
				}
			}
			for _, c := range comps {
				lo, hi := int(c.Lo)*k, int(c.Hi)*k
				mergeSplit(keys[lo:lo+k], keys[hi:hi+k], buf)
			}
			if !isSorted(keys) {
				t.Fatalf("%s: counts %v leave %v", prog.Net().Name(), counts, keys)
			}
			done = true
			for p := range counts { // next count vector, like an odometer
				if counts[p]++; counts[p] <= k {
					done = false
					break
				}
				counts[p] = 0
			}
		}
	}
}

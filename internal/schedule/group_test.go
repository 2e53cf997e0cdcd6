package schedule

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// programOrder returns prog's executed set in program order: the
// pruning pass's output before grouping.
func programOrder(prog *Program) ([]Comparator, []int32) {
	all := prog.unprunedLowered()
	return pruneComparators(all, prog.Nodes(), prog.stageDead(all))
}

// replayBoth runs the program-order and the grouped stream over copies
// of slab (nodes × width, column-major) through the dispatched kernel
// and fails unless the results are identical.
func replayBoth(t *testing.T, name string, comps, gcomps []Comparator, slab []simnet.Key, width int) {
	t.Helper()
	want := slices.Clone(slab)
	runComparators(want, comps, chunkEnds(comps), width)
	got := slices.Clone(slab)
	runComparators(got, gcomps, chunkEnds(gcomps), width)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s width %d: grouped replay differs at slab[%d]: %d, program order %d",
				name, width, i, got[i], want[i])
		}
	}
}

// extremeSlab fills nodes × width keys from a fixed seed with
// duplicates, MinInt64 and MaxInt64 (the Sentinel) mixed in.
func extremeSlab(nodes, width int, seed int64) []simnet.Key {
	rng := rand.New(rand.NewSource(seed))
	slab := make([]simnet.Key, nodes*width)
	for i := range slab {
		switch rng.Intn(8) {
		case 0:
			slab[i] = math.MinInt64
		case 1:
			slab[i] = Sentinel
		case 2:
			slab[i] = simnet.Key(rng.Intn(4)) // duplicates
		default:
			slab[i] = simnet.Key(rng.Int63() - math.MaxInt64/2)
		}
	}
	return slab
}

// TestGroupedK2_4Exhaustive replays every 0-1 input of K₂⁴ through the
// program-order and the grouped executed stream, at blocks small
// enough to reorder a 16-position network; the outputs must agree
// lane for lane. The network's own stream (16 ≤ groupBlock) must keep
// program order.
func TestGroupedK2_4Exhaustive(t *testing.T) {
	prog, err := CompileUncached(product.MustNew(graph.K2(), 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	comps, index := programOrder(prog)
	if !slices.Equal(prog.LoweredComparators(), comps) || !slices.Equal(prog.ExecutedIndex(), index) {
		t.Fatal("a one-block network's executed stream left program order")
	}
	const nodes, width = 16, 1 << 16
	slab := make([]simnet.Key, nodes*width)
	for v := 0; v < width; v++ {
		for pos := 0; pos < nodes; pos++ {
			slab[pos*width+v] = simnet.Key(v >> pos & 1)
		}
	}
	for _, block := range []int32{4, 8} {
		gcomps, gindex := groupByBlock(comps, index, nodes, block)
		if err := checkProjection(comps, index, gcomps, gindex, nodes); err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if slices.Equal(gcomps, comps) {
			t.Fatalf("block %d: grouping left the stream unchanged", block)
		}
		replayBoth(t, "K2^4", comps, gcomps, slab, width)
	}
}

// TestGroupedK2_10 checks the executed stream the kernel runs at K₂¹⁰
// against its program order on random keys with extremes, at a
// line-multiple width and at widths with a masked tail.
func TestGroupedK2_10(t *testing.T) {
	prog, err := Compile(product.MustNew(graph.K2(), 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	comps, _ := programOrder(prog)
	gcomps := prog.LoweredComparators()
	if slices.Equal(gcomps, comps) {
		t.Fatal("K2^10's executed stream was not grouped")
	}
	for _, width := range []int{1, 13, 88} {
		replayBoth(t, "K2^10", comps, gcomps, extremeSlab(prog.Nodes(), width, int64(width)), width)
	}
}

// TestProjectionCheckRejectsMutants: swapping two grouped comparators
// that share a position changes what that position sees, so the check
// must refuse it; swapping two that share none commutes and passes.
// A comparator that no longer matches its index, or a dropped one,
// fails too.
func TestProjectionCheckRejectsMutants(t *testing.T) {
	prog, err := Compile(product.MustNew(graph.K2(), 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	comps, index := programOrder(prog)
	gcomps, gindex := prog.LoweredComparators(), prog.ExecutedIndex()
	n := prog.Nodes()
	if err := checkProjection(comps, index, gcomps, gindex, n); err != nil {
		t.Fatal(err)
	}
	shares := func(a, b Comparator) bool {
		return a.Lo == b.Lo || a.Lo == b.Hi || a.Hi == b.Lo || a.Hi == b.Hi
	}
	swapped := func(i, j int) error {
		c, x := slices.Clone(gcomps), slices.Clone(gindex)
		c[i], c[j] = c[j], c[i]
		x[i], x[j] = x[j], x[i]
		return checkProjection(comps, index, c, x, n)
	}
	var sharing, disjoint bool
	for j := 1; j < len(gcomps) && !(sharing && disjoint); j++ {
		if shares(gcomps[0], gcomps[j]) {
			if !sharing && swapped(0, j) == nil {
				t.Fatalf("swap of comparators 0 and %d sharing a position passed the check", j)
			}
			sharing = true
		} else if !disjoint && j == 1 {
			if err := swapped(0, 1); err != nil {
				t.Fatalf("swap of disjoint adjacent comparators refused: %v", err)
			}
			disjoint = true
		}
	}
	if !sharing {
		t.Fatal("no comparator shares a position with the first")
	}
	c := slices.Clone(gcomps)
	c[5].Lo, c[5].Hi = c[5].Hi, c[5].Lo
	if checkProjection(comps, index, c, gindex, n) == nil {
		t.Fatal("a reversed comparator passed the check")
	}
	if checkProjection(comps, index, gcomps[1:], gindex[1:], n) == nil {
		t.Fatal("a dropped comparator passed the check")
	}
}

// TestKernelChunksSplitAtGroups pins the preemption split: chunks
// cover the executed stream in order, none exceeds kernelChunk, and a
// cut falls inside a run of one block's comparators only when that run
// alone is longer than a chunk.
func TestKernelChunksSplitAtGroups(t *testing.T) {
	prog, err := Compile(product.MustNew(graph.K2(), 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkChunks := func(name string, comps []Comparator, ends []int32) {
		t.Helper()
		if len(ends) == 0 || int(ends[len(ends)-1]) != len(comps) {
			t.Fatalf("%s: chunks %v do not end at %d", name, ends, len(comps))
		}
		start := 0
		for _, e := range ends {
			end := int(e)
			if end <= start || end-start > kernelChunk {
				t.Fatalf("%s: chunk [%d,%d) is empty or longer than %d", name, start, end, kernelChunk)
			}
			if end < len(comps) {
				b := blockOf(comps[end], groupBlock)
				if b >= 0 && b == blockOf(comps[end-1], groupBlock) {
					// The whole chunk must be one group.
					for k := start; k < end; k++ {
						if blockOf(comps[k], groupBlock) != b {
							t.Fatalf("%s: cut at %d splits a group", name, end)
						}
					}
				}
			}
			start = end
		}
	}
	comps := prog.LoweredComparators()
	ends := prog.kernelChunks()
	if len(ends) < len(comps)/kernelChunk+1 {
		t.Fatalf("%d chunks for %d comparators", len(ends), len(comps))
	}
	checkChunks("K2^10", comps, ends)

	// One block's comparators, longer than two chunks, then a cross
	// comparator: forced cuts at kernelChunk multiples.
	long := make([]Comparator, 2*kernelChunk+10)
	for k := range long {
		long[k] = Comparator{int32(k % 3), 3}
	}
	long = append(long, Comparator{0, groupBlock})
	ends = chunkEnds(long)
	if !slices.Equal(ends, []int32{kernelChunk, 2 * kernelChunk, int32(len(long))}) {
		t.Fatalf("one long group: chunk ends %v", ends)
	}
	checkChunks("long group", long, ends)
}

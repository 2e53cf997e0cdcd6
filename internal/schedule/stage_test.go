package schedule

import (
	"errors"
	"slices"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// TestStagedPassExecutedCounts pins the executed stream of the
// hypercubes at the exact live set the staged certificate finds, and
// what the known-order pass alone keeps at its counts (THEORY.md §17,
// §18); Size keeps the paper's count.
func TestStagedPassExecutedCounts(t *testing.T) {
	for _, tc := range []struct {
		r                     int
		size, known, executed int
	}{
		{4, 244, 128, 90},
		{6, 2844, 1589, 798},
		{8, 22908, 14222, 5694},
		{10, 154108, 102394, 35838},
	} {
		prog, err := CompileUncached(product.MustNew(graph.K2(), tc.r), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{prog.Size(), len(knownOrder(prog)), prog.Executed()}; got != [3]int{tc.size, tc.known, tc.executed} {
			t.Errorf("K2^%d: size, known-order, executed = %v, want %v", tc.r, got, [3]int{tc.size, tc.known, tc.executed})
		}
	}
}

// TestStagesSplitTheRecursion: the merge markers cut the unpruned
// stream into the base stage and one merge per dimension, each with its
// vector count; programs without that structure, or with a stage over
// the cap, are not staged.
func TestStagesSplitTheRecursion(t *testing.T) {
	prog, err := CompileUncached(product.MustNew(graph.K2(), 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := prog.Stages()
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{{K: 2, First: 0, End: 24, Vectors: 16, Words: 1}, {K: 3, First: 24, End: 104, Vectors: 25, Words: 1},
		{K: 4, First: 104, End: 244, Vectors: 81, Words: 2}}
	if !slices.Equal(stages, want) {
		t.Fatalf("stages %+v, want %+v", stages, want)
	}

	var unmarked []Op
	for _, op := range prog.Ops() {
		if op.Kind != OpMergeMarker {
			unmarked = append(unmarked, op)
		}
	}
	bare, err := NewProgram(prog.Net(), prog.Engine(), "adhoc", unmarked)
	if err != nil {
		t.Fatal(err)
	}
	path, err := CompileUncached(product.MustNew(graph.Path(8), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CompileUncached(product.MustNew(graph.Path(5), 2), nil) // a 25-key base stage
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Program{"unmarked K2^4": bare, "path8": path, "grid5^2": big} {
		if _, err := p.Stages(); !errors.Is(err, ErrNotStaged) {
			t.Errorf("%s: Stages() error %v, want ErrNotStaged", name, err)
		}
		if got, want := p.Executed(), len(knownOrder(p)); got != want {
			t.Errorf("%s: executes %d, known-order stream %d", name, got, want)
		}
	}
}

// TestStagedStreamMatchesUnpruned: the staged executed stream gives the
// unpruned replay's output byte for byte, duplicates and both extremes
// included, on homogeneous, routed and heterogeneous programs.
func TestStagedStreamMatchesUnpruned(t *testing.T) {
	for _, net := range []*product.Network{
		product.MustNew(graph.K2(), 6),
		product.MustNew(graph.Path(3), 3),
		product.MustNew(graph.Cycle(4), 3),
		product.MustNew(graph.CompleteBinaryTree(2), 3),
		product.MustNewHetero([]*graph.Graph{graph.Path(2), graph.Path(4), graph.Path(3), graph.Path(2)}),
	} {
		prog, err := CompileUncached(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Executed() >= len(knownOrder(prog)) {
			t.Errorf("%s: stage facts dropped nothing (%d executed)", net.Name(), prog.Executed())
		}
		all := make([]int32, prog.Size())
		for f := range all {
			all[f] = int32(f)
		}
		ref, err := prog.WithExecuted(all)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, 40)
		for i := range sizes {
			sizes[i] = net.Nodes()
		}
		got := mixedBatch(sizes, 5)
		want := make([][]simnet.Key, len(got))
		for i := range got {
			want[i] = slices.Clone(got[i])
		}
		if err := RunBatchColumnar(prog, got, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := RunBatchColumnar(ref, want, 1, nil); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) || !slices.IsSorted(got[i]) {
				t.Fatalf("%s: set %d is %v, unpruned replay %v", net.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestFailedStageUsesNoStageFacts: a program whose last merge moves no
// key fails that stage's certificate, so its executed stream is the
// known-order stream; probing a live comparator names it as a live
// drop in its own stage.
func TestFailedStageUsesNoStageFacts(t *testing.T) {
	prog, err := CompileUncached(product.MustNew(graph.K2(), 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	inMerge4 := false
	for _, op := range prog.Ops() {
		inMerge4 = inMerge4 || (op.Kind == OpMergeMarker && op.Dim == 4)
		if !inMerge4 || (op.Kind != OpCompareExchange && op.Kind != OpRoutedExchange) {
			ops = append(ops, op)
		}
	}
	broken, err := NewProgram(prog.Net(), prog.Engine(), "adhoc", ops)
	if err != nil {
		t.Fatal(err)
	}
	brep, err := CertifyStages(broken, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if brep.Certified || brep.Stages[brep.Failed].K != 4 {
		t.Fatalf("empty merge 4: certified=%v failed=%d (%s)", brep.Certified, brep.Failed, brep.Reason)
	}
	if got, want := broken.Executed(), len(knownOrder(broken)); got != want {
		t.Errorf("failed certificate: executes %d, known-order stream %d", got, want)
	}

	rep, err := CertifyStages(prog, nil, 1)
	if err != nil || !rep.Certified {
		t.Fatalf("K2^4: %v %+v", err, rep)
	}
	last := 0
	for f, live := range rep.Live {
		if live {
			last = f
		}
	}
	probe := make([]bool, prog.Size())
	probe[last] = true
	rep, err = CertifyStages(prog, probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Certified || rep.LiveDrop != last || rep.Stages[rep.Failed].K != 4 {
		t.Fatalf("probed live comparator %d: certified=%v liveDrop=%d failed=%d", last, rep.Certified, rep.LiveDrop, rep.Failed)
	}
}

// TestLoweringConcurrentFirstUse: goroutines racing to the first use of
// a fresh program's executed stream all get the same slices.
func TestLoweringConcurrentFirstUse(t *testing.T) {
	for _, net := range []*product.Network{product.MustNew(graph.K2(), 6), product.MustNew(graph.Path(8), 2)} {
		prog, err := CompileUncached(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		comps := make([][]Comparator, callers)
		index := make([][]int32, callers)
		done := make(chan int)
		for g := 0; g < callers; g++ {
			go func(g int) {
				if g%2 == 0 { // half the callers ask for the index first
					index[g] = prog.ExecutedIndex()
				}
				comps[g] = prog.LoweredComparators()
				index[g] = prog.ExecutedIndex()
				done <- g
			}(g)
		}
		for range comps {
			<-done
		}
		for g := 1; g < callers; g++ {
			if len(comps[g]) == 0 || &comps[g][0] != &comps[0][0] || &index[g][0] != &index[0][0] {
				t.Fatalf("%s: caller %d got a different stream", net.Name(), g)
			}
		}
	}
}

package schedule

import (
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
)

// TestKnownOrderPassCounts pins the pass's strength on the networks
// the issue tracker quotes, and that it leaves the paper's numbers
// alone: Size, Rounds and Depth are those of the unpruned ops.
func TestKnownOrderPassCounts(t *testing.T) {
	for _, tc := range []struct {
		net      *product.Network
		size     int
		executed int // upper bound
	}{
		{product.MustNew(graph.K2(), 4), 244, 128},
		{product.MustNew(graph.K2(), 6), 2844, 1589},
		{product.MustNew(graph.Path(8), 2), 1568, 1401},
	} {
		prog, err := CompileUncached(tc.net, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds, depth := prog.Rounds(), prog.Depth()
		if got := prog.Executed(); got > tc.executed || got == 0 {
			t.Errorf("%s: Executed() = %d, want 1..%d", tc.net.Name(), got, tc.executed)
		}
		if prog.Size() != tc.size || prog.Rounds() != rounds || prog.Depth() != depth {
			t.Errorf("%s: Size %d Rounds %d Depth %d changed by lowering (want size %d)",
				tc.net.Name(), prog.Size(), prog.Rounds(), prog.Depth(), tc.size)
		}
	}
}

// TestExecutedIndexMapsBack: every executed comparator is the unpruned
// comparator its index names, indices increase, and WithExecuted
// rebuilds exactly that stream from the indices — or rejects indices
// out of range or order.
func TestExecutedIndexMapsBack(t *testing.T) {
	prog, err := CompileUncached(product.MustNew(graph.Path(4), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	all := prog.unprunedLowered()
	comps, index := prog.LoweredComparators(), prog.ExecutedIndex()
	if len(index) != len(comps) || len(all) != prog.Size() {
		t.Fatalf("%d indices for %d comparators; %d unpruned for size %d",
			len(index), len(comps), len(all), prog.Size())
	}
	for k, f := range index {
		if all[f] != comps[k] || (k > 0 && f <= index[k-1]) {
			t.Fatalf("executed %d: index %d maps to %v, want %v (or indices not increasing)", k, f, all[f], comps[k])
		}
	}
	drop := append([]int32(nil), index[:3]...)
	drop = append(drop, index[4:]...)
	q, err := prog.WithExecuted(drop)
	if err != nil {
		t.Fatal(err)
	}
	if q.Executed() != len(comps)-1 || q.Size() != prog.Size() || len(q.Ops()) != len(prog.Ops()) {
		t.Fatalf("WithExecuted: executed %d size %d ops %d", q.Executed(), q.Size(), len(q.Ops()))
	}
	for k, f := range q.ExecutedIndex() {
		if q.LoweredComparators()[k] != all[f] {
			t.Fatalf("WithExecuted: comparator %d does not match index %d", k, f)
		}
	}
	for _, bad := range [][]int32{{-1}, {int32(len(all))}, {5, 5}, {6, 2}} {
		if _, err := prog.WithExecuted(bad); err == nil {
			t.Errorf("WithExecuted(%v) accepted", bad)
		}
	}
}

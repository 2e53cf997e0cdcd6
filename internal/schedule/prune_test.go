package schedule

import (
	"slices"
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
// comparator its index names, indices increase along every position
// (globally on a network of one block, which keeps program order), and
// WithExecuted rebuilds that stream from the indices in program order —
// or rejects indices out of range or order.
func TestExecutedIndexMapsBack(t *testing.T) {
	for _, net := range []*product.Network{product.MustNew(graph.Path(4), 2), product.MustNew(graph.K2(), 7)} {
		prog, err := CompileUncached(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := prog.unprunedLowered()
		comps, index := prog.LoweredComparators(), prog.ExecutedIndex()
		if len(index) != len(comps) || len(all) != prog.Size() {
			t.Fatalf("%s: %d indices for %d comparators; %d unpruned for size %d",
				net.Name(), len(index), len(comps), len(all), prog.Size())
		}
		last := make([]int32, net.Nodes())
		for i := range last {
			last[i] = -1
		}
		for k, f := range index {
			c := comps[k]
			if all[f] != c || f <= last[c.Lo] || f <= last[c.Hi] || (net.Nodes() <= groupBlock && k > 0 && f <= index[k-1]) {
				t.Fatalf("%s: executed %d: index %d maps to %v, want %v (or indices out of order)", net.Name(), k, f, all[f], c)
			}
			last[c.Lo], last[c.Hi] = f, f
		}
		drop := slices.Clone(index)
		slices.Sort(drop)
		drop = append(drop[:3], drop[4:]...)
		q, err := prog.WithExecuted(drop)
		if err != nil {
			t.Fatal(err)
		}
		if q.Executed() != len(comps)-1 || q.Size() != prog.Size() || len(q.Ops()) != len(prog.Ops()) {
			t.Fatalf("%s: WithExecuted: executed %d size %d ops %d", net.Name(), q.Executed(), q.Size(), len(q.Ops()))
		}
		for k, f := range q.ExecutedIndex() {
			if q.LoweredComparators()[k] != all[f] {
				t.Fatalf("%s: WithExecuted: comparator %d does not match index %d", net.Name(), k, f)
			}
		}
		for _, bad := range [][]int32{{-1}, {int32(len(all))}, {5, 5}, {6, 2}} {
			if _, err := prog.WithExecuted(bad); err == nil {
				t.Errorf("%s: WithExecuted(%v) accepted", net.Name(), bad)
			}
		}
	}
}

package exp

import (
	"fmt"

	"productsort/internal/baseline"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/sort2d"
	"productsort/internal/stats"
	"productsort/internal/workload"
)

// E11Obliviousness demonstrates two structural properties behind the
// paper's analysis: (a) the algorithm is oblivious — its round count is
// identical for every input distribution, which is why the closed forms
// of Theorem 1 are exact rather than averages; and (b) the recorded
// schedule is itself a sorting network, compared here against Batcher's
// constructions, together with the S_2 engine ablation the schedule
// depth depends on.
func E11Obliviousness() *Result {
	res := &Result{ID: "E11", Title: "Obliviousness, schedule-as-network statistics, and the S2 engine ablation"}

	t := stats.NewTable("E11a: rounds by workload (path4^3, 64 processors) — all identical",
		"workload", "rounds", "compare ops")
	g := graph.Path(4)
	net := product.MustNew(g, 3)
	firstRounds := -1
	for _, name := range workload.Names() {
		gen, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		clk := sortAndClock(g, 3, gen(net.Nodes(), 7), nil)
		if firstRounds < 0 {
			firstRounds = clk.Rounds
		}
		if clk.Rounds != firstRounds {
			panic("exp: algorithm is not oblivious?!")
		}
		t.Add(name, clk.Rounds, clk.CompareOps)
	}
	t.Note("identical rounds for every distribution: the schedule never inspects keys")
	res.Tables = append(res.Tables, t)

	t2 := stats.NewTable("E11b: the extracted schedule as a comparator network vs Batcher",
		"inputs", "network source", "comparators", "phases/depth")
	for _, c := range []struct {
		g *graph.Graph
		r int
	}{
		{graph.K2(), 4}, {graph.K2(), 6}, {graph.Path(4), 2}, {graph.Path(4), 3},
	} {
		net, prog := programFor(c.g, c.r)
		t2.Add(net.Nodes(), "multiway-merge schedule ("+net.Name()+")", prog.Size(), prog.Clock().ComparePhases)
		oem := baseline.OddEvenMergeNetwork(net.Nodes())
		t2.Add(net.Nodes(), "batcher odd-even merge", oem.Size(), oem.Depth())
	}
	res.Tables = append(res.Tables, t2)

	// §3.2's standalone construction: pure comparator networks built
	// from the multiway-merge recursion, swept over the fan-in.
	t2b := stats.NewTable("E11b': §3.2 standalone multiway-merge networks — fan-in ablation (64 inputs)",
		"fan-in N", "construction", "comparators", "depth")
	for _, c := range []struct{ n, k int }{{2, 6}, {4, 3}, {8, 2}} {
		nw := baseline.MultiwayMergeNetwork(c.n, c.k)
		t2b.Add(c.n, fmt.Sprintf("multiway N=%d (N^%d inputs)", c.n, c.k), nw.Size(), nw.Depth())
	}
	oem64 := baseline.OddEvenMergeNetwork(64)
	t2b.Add("-", "batcher odd-even merge", oem64.Size(), oem64.Depth())
	t2b.Note("larger fan-in amortizes Step 4 over fewer recursion levels: N=4 roughly halves N=2's comparator count")
	res.Tables = append(res.Tables, t2b)

	// Exact redundancy elimination at 16 inputs: comparators that never
	// fire on any 0-1 input are provably removable.
	t2c := stats.NewTable("E11b'': redundancy in the §3.2 construction (16 inputs, exact 0-1 pruning)",
		"construction", "comparators", "after pruning", "batcher OEM")
	oem16 := baseline.OddEvenMergeNetwork(16)
	for _, c := range []struct{ n, k int }{{2, 4}, {4, 2}} {
		nw := baseline.MultiwayMergeNetwork(c.n, c.k)
		t2c.Add(fmt.Sprintf("multiway N=%d^%d", c.n, c.k), nw.Size(), nw.PruneZeroOne().Size(), oem16.Size())
	}
	t2c.Note("about half the multiway comparators never fire (Step 4 re-sorts mostly-sorted chunks); even pruned, Batcher stays smaller")
	res.Tables = append(res.Tables, t2c)

	t3 := stats.NewTable("E11c: S2 engine ablation (grid 8x8 and 4^3)",
		"network", "engine", "S2 rounds/phase", "total rounds")
	for _, c := range []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(8), 2}, {graph.Path(4), 3},
	} {
		for _, e := range []sort2d.Engine{sort2d.Shearsort{}, sort2d.SnakeOET{}} {
			net := product.MustNew(c.g, c.r)
			clk := sortAndClock(c.g, c.r, workload.Uniform(net.Nodes(), 13), e)
			t3.Add(net.Name(), e.Name(), e.Rounds(c.g.N()), clk.Rounds)
		}
	}
	t3.Note("shearsort's (2⌈log N⌉+1)N beats snake odd-even transposition's N² from N≥8; both inherit the same (r-1)² factor")
	res.Tables = append(res.Tables, t3)
	return res
}

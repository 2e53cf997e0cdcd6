package exp

import (
	"fmt"
	"sort"

	"productsort/internal/blocksort"
	"productsort/internal/graph"
	"productsort/internal/simnet"
	"productsort/internal/stats"
	"productsort/internal/workload"
)

// E9BlockScaling exercises the keys ≫ processors regime (the setting
// Section 1 of the paper credits multiway algorithms with handling
// well): the oblivious schedule is replayed with merge-split operators,
// so the parallel round count stays fixed while each round moves a
// whole block. Total keys scale by 64× with zero additional rounds.
func E9BlockScaling() *Result {
	res := &Result{ID: "E9", Title: "Extension: block sorting (keys ≫ processors) — rounds independent of block size"}
	t := stats.NewTable("E9: merge-split block sorting on the recorded schedule",
		"network", "processors", "block", "total keys", "rounds", "merge-splits", "keys moved", "sorted")
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(4), 3},
		{graph.K2(), 6},
		{graph.Petersen(), 2},
	}
	for _, c := range cfgs {
		net, prog := programFor(c.g, c.r)
		for _, bs := range []int{1, 4, 16, 64} {
			keys := workload.Uniform(net.Nodes()*bs, int64(bs))
			want := append([]simnet.Key(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			st, err := blocksort.Sort(prog, keys, bs)
			if err != nil {
				panic(err)
			}
			ok := true
			for i := range keys {
				if keys[i] != want[i] {
					ok = false
					break
				}
			}
			t.Add(net.Name(), net.Nodes(), bs, net.Nodes()*bs, st.Rounds, st.MergeSplits, st.KeysMoved, ok)
		}
	}
	t.Note("rounds equal the schedule depth for every block size; only per-round bandwidth grows")
	res.Tables = append(res.Tables, t)

	fig := stats.NewFigure("E9: total keys sorted vs parallel rounds (path4^3 schedule)", "block size", "value")
	serKeys := fig.AddSeries("total keys")
	serRounds := fig.AddSeries("rounds")
	net, prog := programFor(graph.Path(4), 3)
	for _, bs := range []int{1, 4, 16, 64} {
		keys := workload.Uniform(net.Nodes()*bs, 3)
		st, err := blocksort.Sort(prog, keys, bs)
		if err != nil {
			panic(err)
		}
		serKeys.Point(fmt.Sprint(bs), float64(net.Nodes()*bs))
		serRounds.Point(fmt.Sprint(bs), float64(st.Rounds))
	}
	res.Figures = append(res.Figures, fig)
	return res
}

package cert

import (
	"fmt"
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/graph"
	"productsort/internal/schedule"
)

// TestDroppedComparatorsAreExhaustivelyDead is the soundness gate of
// the known-order pass inside the exhaustive envelope, checked without
// the bitsliced engine: the oracle replays every 0-1 vector through
// the unpruned ops and records which comparators ever exchange. Every
// comparator the executed stream drops must be in that dead set, and
// the certifier's Dead report — which now covers the dropped
// comparators too — must be exactly that set, so the dead counts in
// BENCH_cert.json do not move.
func TestDroppedComparatorsAreExhaustivelyDead(t *testing.T) {
	progs := map[string]*schedule.Program{}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		r    int
	}{
		{"hypercube^3", graph.K2(), 3},
		{"hypercube^4", graph.K2(), 4},
		{"grid3^2", graph.Path(3), 2},
		{"grid4^2", graph.Path(4), 2},
		{"torus4^2", graph.Cycle(4), 2},
		{"mct2^2", graph.CompleteBinaryTree(2), 2},
	} {
		for _, eng := range []string{"auto", "shearsort", "snake-oet"} {
			progs[tc.name+"/"+eng] = compileNet(t, tc.g, tc.r, eng)
		}
	}
	for _, size := range []int{8, 16} {
		mw, err := multiway.Emit(size)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := periodic.Emit(size)
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("multiway4[%d]", size)] = mw
		progs[fmt.Sprintf("periodic[%d]", size)] = pd
	}
	for name, prog := range progs {
		live := oracleLive(prog)
		dropped := oracleDropped(prog)
		for f := range dropped {
			if dropped[f] && live[f] {
				t.Errorf("%s: comparator %d is dropped but exchanges in the unpruned ops", name, f)
			}
		}
		res, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Certified || !res.Exhaustive {
			t.Fatalf("%s: not certified: %v", name, res.Witness)
		}
		wantDead := 0
		for _, l := range live {
			if !l {
				wantDead++
			}
		}
		if len(res.Dead) != wantDead {
			t.Errorf("%s: %d dead reported, unpruned oracle finds %d", name, len(res.Dead), wantDead)
		}
		t.Logf("%s: executes %d of %d, %d dead", name, res.Executed, res.Comparators, wantDead)
	}
}

// oracleLive replays all 2^n 0-1 vectors through the unpruned ops and
// marks, per exchange pair in execution order, whether it ever
// exchanges.
func oracleLive(prog *schedule.Program) []bool {
	net := prog.Net()
	n := net.Nodes()
	live := make([]bool, prog.Size())
	keys := make([]int, n)
	for v := 0; v < 1<<n; v++ {
		for p := 0; p < n; p++ {
			keys[net.NodeAtSnake(p)] = (v >> p) & 1
		}
		flat := 0
		for _, op := range prog.Ops() {
			if op.Kind != schedule.OpCompareExchange && op.Kind != schedule.OpRoutedExchange {
				continue
			}
			for _, pr := range op.Pairs {
				if keys[pr[0]] > keys[pr[1]] {
					live[flat] = true
					keys[pr[0]], keys[pr[1]] = keys[pr[1]], keys[pr[0]]
				}
				flat++
			}
		}
	}
	return live
}

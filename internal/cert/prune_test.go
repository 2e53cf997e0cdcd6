package cert

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
)

// TestDroppedComparatorsAreExhaustivelyDead is the soundness gate of
// the pruning pass inside the exhaustive envelope, checked without the
// bitsliced engine: the oracle replays every 0-1 vector through the
// unpruned ops and records which comparators ever exchange. Every
// comparator the executed stream drops must be in that dead set, and
// the certifier's Dead report — which covers the dropped comparators
// too — must be exactly that set, so the dead counts in BENCH_cert.json
// do not move. On every program that carries the recursion's stages
// (every engine, K₂²–K₂⁴, K₃², K₄², path4², cycle4² and a
// heterogeneous 3×2×2 grid), the staged certificate must agree with the
// exhaustive one: the same verdict, and a live set equal to the
// oracle's — the exactness claim of THEORY.md §18.
func TestDroppedComparatorsAreExhaustivelyDead(t *testing.T) {
	progs := map[string]*schedule.Program{}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		r    int
	}{
		{"hypercube^2", graph.K2(), 2},
		{"hypercube^3", graph.K2(), 3},
		{"hypercube^4", graph.K2(), 4},
		{"K3^2", graph.Complete(3), 2},
		{"K4^2", graph.Complete(4), 2},
		{"grid3^2", graph.Path(3), 2},
		{"grid4^2", graph.Path(4), 2},
		{"torus4^2", graph.Cycle(4), 2},
		{"mct2^2", graph.CompleteBinaryTree(2), 2},
	} {
		engines := []string{"auto", "shearsort", "snake-oet"}
		if tc.g.N() == 2 {
			engines = append(engines, "opt4")
		}
		for _, eng := range engines {
			progs[tc.name+"/"+eng] = compileNet(t, tc.g, tc.r, eng)
		}
	}
	hetero, err := schedule.Compile(product.MustNewHetero([]*graph.Graph{graph.Path(3), graph.Path(2), graph.Path(2)}), nil)
	if err != nil {
		t.Fatal(err)
	}
	progs["grid3x2x2/auto"] = hetero
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
	staged := 0
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

		rep, err := schedule.CertifyStages(prog, nil, 0)
		if errors.Is(err, schedule.ErrNotStaged) {
			if prog.Net().R() >= 2 {
				t.Errorf("%s: not staged: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		staged++
		if rep.Certified != res.Certified {
			t.Errorf("%s: staged verdict %v, exhaustive %v (%s)", name, rep.Certified, res.Certified, rep.Reason)
		}
		if !slices.Equal(rep.Live, live) {
			t.Errorf("%s: staged live set differs from the exhaustive one", name)
		}
		if got := prog.Executed(); got != prog.Size()-wantDead {
			t.Errorf("%s: executes %d, exact live set has %d", name, got, prog.Size()-wantDead)
		}
		sres, err := Staged(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sres.Certified || len(sres.Dead) != wantDead {
			t.Errorf("%s: staged certificate %v with %d dead, want certified with %d", name, sres.Certified, len(sres.Dead), wantDead)
		}
	}
	if staged < 25 {
		t.Errorf("only %d staged programs compared", staged)
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

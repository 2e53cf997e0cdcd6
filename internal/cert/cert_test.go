package cert

import (
	"fmt"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// compileNet compiles the product of g^r with the named engine.
func compileNet(t *testing.T, g *graph.Graph, r int, engine string) *schedule.Program {
	t.Helper()
	net, err := product.New(g, r)
	if err != nil {
		t.Fatal(err)
	}
	var e sort2d.Engine
	if engine != "" {
		e, err = sort2d.ByName(engine)
		if err != nil {
			t.Fatal(err)
		}
	}
	prog, err := schedule.Compile(net, e)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func compileHypercube(t *testing.T, r int) *schedule.Program {
	t.Helper()
	return compileNet(t, graph.K2(), r, "")
}

// TestExhaustiveCertifiesBuiltinFamilies is the headline guarantee:
// every built-in factor family / S_2 engine combination inside the
// exhaustive envelope is machine-proved to sort, over all 2^n 0-1
// vectors.
func TestExhaustiveCertifiesBuiltinFamilies(t *testing.T) {
	engines := []string{"auto", "shearsort", "snake-oet"}
	cases := []struct {
		name string
		g    *graph.Graph
		r    int
		opt4 bool // N=2 factor: opt4 applies too
	}{
		{"hypercube^2", graph.K2(), 2, true},
		{"hypercube^3", graph.K2(), 3, true},
		{"hypercube^4", graph.K2(), 4, true},
		{"grid3^2", graph.Path(3), 2, false},
		{"grid4^2", graph.Path(4), 2, false},
		{"torus3^2", graph.Cycle(3), 2, false},
		{"torus4^2", graph.Cycle(4), 2, false},
		{"mct2^2", graph.CompleteBinaryTree(2), 2, false},
		{"debruijn(2,2)^2", graph.DeBruijn(2, 2), 2, false},
		{"shuffle(2)^2", graph.ShuffleExchange(2), 2, false},
	}
	for _, tc := range cases {
		engs := engines
		if tc.opt4 {
			engs = append(engs, "opt4")
		}
		for _, eng := range engs {
			t.Run(fmt.Sprintf("%s/%s", tc.name, eng), func(t *testing.T) {
				prog := compileNet(t, tc.g, tc.r, eng)
				res, err := Run(prog, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Certified || !res.Exhaustive {
					t.Fatalf("not certified: %+v witness=%v", res, res.Witness)
				}
				n := prog.Net().Nodes()
				if res.Keys != n || res.Vectors != uint64(1)<<n {
					t.Fatalf("coverage accounting wrong: keys=%d vectors=%d", res.Keys, res.Vectors)
				}
				wantWords := (res.Vectors + 63) / 64
				if res.Words != wantWords {
					t.Fatalf("words=%d, want %d", res.Words, wantWords)
				}
				if res.Executed != prog.Executed() || res.Executed > res.Comparators {
					t.Fatalf("executed=%d, program executes %d of %d", res.Executed, prog.Executed(), res.Comparators)
				}
				if res.WordOps != res.Words*uint64(res.Executed) {
					t.Fatalf("wordOps=%d, want words*executed=%d", res.WordOps, res.Words*uint64(res.Executed))
				}
				if len(res.Dead) < res.Comparators-res.Executed {
					t.Fatalf("%d dead, but %d comparators are dropped", len(res.Dead), res.Comparators-res.Executed)
				}
				if res.Comparators != prog.Clock().CompareOps {
					t.Fatalf("comparators=%d, clock says %d", res.Comparators, prog.Clock().CompareOps)
				}
			})
		}
	}
}

// TestExhaustiveMatchesOracle cross-checks the bitsliced engine against
// the naive oracle on every vector of a small program — the two
// implementations share no evaluation code.
func TestExhaustiveMatchesOracle(t *testing.T) {
	for _, r := range []int{2, 3} {
		prog := compileHypercube(t, r)
		res, err := Run(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Certified != oracleSortsAll(t, prog) {
			t.Fatalf("r=%d: certifier says %v, oracle disagrees", r, res.Certified)
		}
	}
}

// TestCertifierCatchesBrokenProgram corrupts a known-good program and
// requires a minimized, genuine witness.
func TestCertifierCatchesBrokenProgram(t *testing.T) {
	prog := compileHypercube(t, 3)
	ops := cloneOps(prog.Ops())
	// Reverse the direction of every comparator of the last exchange
	// phase: max now lands on the low snake side.
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == schedule.OpCompareExchange || ops[i].Kind == schedule.OpRoutedExchange {
			for j := range ops[i].Pairs {
				ops[i].Pairs[j][0], ops[i].Pairs[j][1] = ops[i].Pairs[j][1], ops[i].Pairs[j][0]
			}
			break
		}
	}
	broken, err := schedule.NewProgram(prog.Net(), prog.Engine(), "adhoc", ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(broken, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("broken program certified")
	}
	w := res.Witness
	if w == nil {
		t.Fatal("no witness for rejected program")
	}
	if oracleSorts(broken, w.Vector) {
		t.Fatalf("witness %v is not a counterexample", w)
	}
	if !w.Minimal {
		t.Fatalf("witness not 1-minimal: %v", w)
	}
	if w.Ones < 1 || w.Ones >= len(w.Vector) {
		t.Fatalf("witness weight %d implausible (all-0/all-1 vectors always sort)", w.Ones)
	}
	if w.FailPos < 0 || w.FailPos >= len(w.Vector)-1 {
		t.Fatalf("failPos %d out of range", w.FailPos)
	}
	if w.BreakOp < -1 || w.BreakOp >= len(broken.Ops()) {
		t.Fatalf("breakOp %d out of range", w.BreakOp)
	}
	// The original program must still certify (the corruption, not the
	// engine, is what failed).
	if good, err := Run(prog, Options{}); err != nil || !good.Certified {
		t.Fatalf("pristine program no longer certifies: %v %v", good, err)
	}
}

// TestSampledMode exercises the sampling path on a 27-key network, with
// its results pinned so that a changed draw or count fails: on the
// correct program it finds no counterexample and reports the sample's
// coverage; with one comparator of the three-quarter exchange phase
// removed, the smallest failing vector lies in word 13, and every
// worker count reports the same words and the same minimized witness.
func TestSampledMode(t *testing.T) {
	prog := compileNet(t, graph.Path(3), 3, "auto")
	opt := Options{SampleVectors: 1 << 12, Seed: 42}
	res, err := Sampled(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || res.Exhaustive || res.Vectors != 1<<12 || res.Words != 64 || len(res.Dead) != 335 {
		t.Fatalf("sampled run on correct program: %+v (witness %v), want 4096 vectors, 64 words, 335 dead", res, res.Witness)
	}

	ops := cloneOps(prog.Ops())
	seen := 0
	for i := range ops {
		if ops[i].Kind == schedule.OpCompareExchange || ops[i].Kind == schedule.OpRoutedExchange {
			if seen++; seen == prog.Clock().ComparePhases*3/4 {
				ops[i].Pairs = append(ops[i].Pairs[:5], ops[i].Pairs[6:]...)
				break
			}
		}
	}
	broken, err := schedule.NewProgram(prog.Net(), prog.Engine(), "adhoc", ops)
	if err != nil {
		t.Fatal(err)
	}
	want := Witness{
		Vector:  []byte{0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1},
		Ones:    18,
		FailPos: 8,
		BreakOp: -1,
		Minimal: true,
	}
	for _, workers := range []int{1, 2, 8} {
		opt.Workers = workers
		res, err = Sampled(broken, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Certified || res.Witness == nil {
			t.Fatalf("workers=%d: sampling certified a program missing a comparator", workers)
		}
		if res.Words != 14 || res.Vectors != 14*64 {
			t.Errorf("workers=%d: %d words, %d vectors, want 14 and 896", workers, res.Words, res.Vectors)
		}
		if got := *res.Witness; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: witness %+v, want %+v", workers, got, want)
		}
		if oracleSorts(broken, res.Witness.Vector) {
			t.Fatalf("workers=%d: sampled witness %v is not a counterexample", workers, res.Witness)
		}
	}
}

// TestDeadComparatorLint appends a comparator that can never exchange
// (it re-compares an adjacent snake pair after the full sort) and
// expects the lint to flag exactly it.
func TestDeadComparatorLint(t *testing.T) {
	prog := compileHypercube(t, 3)
	net := prog.Net()
	ops := cloneOps(prog.Ops())
	lo, hi := net.NodeAtSnake(0), net.NodeAtSnake(1)
	ops = append(ops, schedule.Op{
		Kind:  schedule.OpCompareExchange,
		Pairs: [][2]int{{lo, hi}},
		Cost:  1,
	})
	padded, err := schedule.NewProgram(net, prog.Engine(), "adhoc", ops)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(padded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("padded program must still sort: witness %v", res.Witness)
	}
	found := false
	for _, d := range res.Dead {
		if d.Op == len(ops)-1 && d.Lo == lo && d.Hi == hi {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended no-op comparator not reported dead; dead=%v", res.Dead)
	}
}

// TestExhaustiveEnvelope asserts the explicit Exhaustive entry point
// refuses networks beyond the envelope instead of silently sampling.
func TestExhaustiveEnvelope(t *testing.T) {
	prog := compileNet(t, graph.Path(3), 3, "auto") // 27 keys
	if _, err := Exhaustive(prog, Options{MaxExhaustiveKeys: 16}); err == nil {
		t.Fatal("27-key network accepted into a 16-key exhaustive envelope")
	}
	res, err := Run(prog, Options{MaxExhaustiveKeys: 16, SampleVectors: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhaustive {
		t.Fatal("Run did not fall back to sampled mode above the envelope")
	}
}

// TestWorkerCountsAgree pins determinism across worker counts: the
// verdict and witness must not depend on parallelism.
func TestWorkerCountsAgree(t *testing.T) {
	prog := compileHypercube(t, 4)
	ops := cloneOps(prog.Ops())
	// Corrupt the final exchange phase: reverse its comparators, so
	// the damage cannot be repaired downstream.
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == schedule.OpCompareExchange || ops[i].Kind == schedule.OpRoutedExchange {
			for j := range ops[i].Pairs {
				ops[i].Pairs[j][0], ops[i].Pairs[j][1] = ops[i].Pairs[j][1], ops[i].Pairs[j][0]
			}
			break
		}
	}
	broken, err := schedule.NewProgram(prog.Net(), prog.Engine(), "adhoc", ops)
	if err != nil {
		t.Fatal(err)
	}
	var base *Witness
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(broken, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Certified {
			t.Fatalf("workers=%d certified a broken program", workers)
		}
		if base == nil {
			base = res.Witness
			continue
		}
		if fmt.Sprint(res.Witness) != fmt.Sprint(base) {
			t.Fatalf("witness differs across worker counts: %v vs %v", res.Witness, base)
		}
	}
}

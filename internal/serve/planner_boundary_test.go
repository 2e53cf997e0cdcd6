package serve

import (
	"errors"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/sort2d"
)

// refFor is the planner's specification, written the slow way: among
// the candidates that cover n, the fewest predicted rounds wins, ties
// broken toward fewer nodes, then name. Every boundary case below is
// checked against it.
func refFor(pl *Planner, n int) *Plan {
	var best *Plan
	for _, p := range pl.Plans() {
		if p.Nodes() < n {
			continue
		}
		switch {
		case best == nil,
			p.Rounds < best.Rounds,
			p.Rounds == best.Rounds && p.Nodes() < best.Nodes(),
			p.Rounds == best.Rounds && p.Nodes() == best.Nodes() && p.Name() < best.Name():
			best = p
		}
	}
	return best
}

// TestPlannerBoundarySizes drives For(n) at, one below, and one above
// every candidate network size (plus the extremes) and requires the
// reference argmin's answer each time: crossing a size boundary must
// switch plans exactly at nodes+1, never at nodes or nodes-1.
func TestPlannerBoundarySizes(t *testing.T) {
	nets := []*product.Network{
		product.MustNew(graph.K2(), 4),    // 16 nodes, expensive for its size
		product.MustNew(graph.Path(4), 2), // 16 nodes, cheap: same-size rounds race
		product.MustNew(graph.Path(3), 2), // 9 nodes
		product.MustNew(graph.K2(), 5),    // 32 nodes
		product.MustNew(graph.Path(4), 3), // 64 nodes
	}
	pl, err := productPlanner(nets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Plans() {
		for _, n := range []int{p.Nodes() - 1, p.Nodes(), p.Nodes() + 1} {
			if n < 1 || n > pl.MaxKeys() {
				continue
			}
			got, err := pl.For(n)
			if err != nil {
				t.Fatalf("For(%d): %v", n, err)
			}
			want := refFor(pl, n)
			if got != want {
				t.Errorf("For(%d) = %s (%d nodes, %d rounds), want %s (%d nodes, %d rounds)",
					n, got.Name(), got.Nodes(), got.Rounds, want.Name(), want.Nodes(), want.Rounds)
			}
			if got.Nodes() < n {
				t.Errorf("For(%d) = %s with only %d nodes: does not cover the request", n, got.Name(), got.Nodes())
			}
		}
	}
	// The hard edges: the smallest request, the exact capacity, and one
	// past it.
	if p, err := pl.For(1); err != nil || p != refFor(pl, 1) {
		t.Fatalf("For(1) = %v, %v", p, err)
	}
	if p, err := pl.For(pl.MaxKeys()); err != nil || p.Nodes() != pl.MaxKeys() {
		t.Fatalf("For(MaxKeys) = %v, %v", p, err)
	}
	if _, err := pl.For(pl.MaxKeys() + 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("For(MaxKeys+1) err = %v, want ErrTooLarge", err)
	}
}

// flatEngine predicts the same round count for every block size, which
// makes every same-dimension candidate tie on rounds — the engine
// exists purely to force the cross-size ties the next test pins. Sort
// is never called: the planner only consults Name and RoundsAB.
type flatEngine struct{}

func (flatEngine) Name() string          { return "flat-test" }
func (flatEngine) Rounds(int) int        { return 7 }
func (flatEngine) RoundsAB(int, int) int { return 7 }
func (flatEngine) Sort(sort2d.Machine, int, int, func(int) bool) {
	panic("flatEngine.Sort: planner tests never execute the engine")
}

// TestPlannerTieBreaksTowardFewerNodes pins the suffix-argmin's strict
// comparison: when a larger candidate matches a smaller one on
// predicted rounds, the planner must keep the smaller network (less
// sentinel padding, less scratch). Under flatEngine every 2-dimensional
// candidate costs identical rounds, so each request must land on the
// smallest covering network — a planner that preferred the later
// (larger) plan on ties would route everything to 100 nodes.
func TestPlannerTieBreaksTowardFewerNodes(t *testing.T) {
	nets := []*product.Network{
		product.MustNew(graph.Petersen(), 2), // 100 nodes
		product.MustNew(graph.K2(), 2),       // 4 nodes
		product.MustNew(graph.Path(4), 2),    // 16 nodes
		product.MustNew(graph.Path(3), 2),    // 9 nodes
	}
	pl, err := productPlanner(nets, flatEngine{})
	if err != nil {
		t.Fatal(err)
	}
	plans := pl.Plans()
	for i := 1; i < len(plans); i++ {
		if plans[i].Rounds != plans[0].Rounds {
			t.Fatalf("flatEngine failed to force a tie: %s predicts %d rounds, %s predicts %d",
				plans[0].Name(), plans[0].Rounds, plans[i].Name(), plans[i].Rounds)
		}
	}
	for n, wantNodes := range map[int]int{
		1: 4, 3: 4, 4: 4,
		5: 9, 9: 9,
		10: 16, 16: 16,
		17: 100, 100: 100,
	} {
		p, err := pl.For(n)
		if err != nil {
			t.Fatalf("For(%d): %v", n, err)
		}
		if p.Nodes() != wantNodes {
			t.Errorf("For(%d) = %s (%d nodes), want the %d-node candidate: equal-rounds tie must break toward fewer nodes",
				n, p.Name(), p.Nodes(), wantNodes)
		}
	}
}

// TestPlannerTieBreaksByNameOnEqualSize: two candidates with identical
// node count and identical predicted rounds must resolve
// deterministically by name, so plan choice (and therefore bucket and
// cache signatures) is stable across planner rebuilds.
func TestPlannerTieBreaksByNameOnEqualSize(t *testing.T) {
	a := product.MustNew(graph.Path(3), 2)               // 9 nodes
	b := product.MustNew(graph.CompleteBinaryTree(2), 2) // 9 nodes, same rounds under Auto
	for _, order := range [][]*product.Network{{a, b}, {b, a}} {
		pl, err := productPlanner(order, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pl.For(9)
		if err != nil {
			t.Fatal(err)
		}
		if want := refFor(pl, 9); p != want {
			t.Fatalf("For(9) = %s, want %s", p.Name(), want.Name())
		}
		if p.Rounds != pl.Plans()[0].Rounds || len(pl.Plans()) != 2 ||
			pl.Plans()[0].Rounds != pl.Plans()[1].Rounds {
			t.Fatalf("fixture drifted: expected a 9-node equal-rounds pair, got %d@%d vs %d@%d rounds",
				pl.Plans()[0].Nodes(), pl.Plans()[0].Rounds, pl.Plans()[1].Nodes(), pl.Plans()[1].Rounds)
		}
		if got, want := p.Name(), minName(a.Name(), b.Name()); got != want {
			t.Fatalf("For(9) = %s, want the lexically first name %s independent of candidate order", got, want)
		}
	}
}

func minName(a, b string) string {
	if a < b {
		return a
	}
	return b
}

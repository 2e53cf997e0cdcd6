package serve

import (
	"errors"
	"testing"

	"productsort/internal/core"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/sort2d"
)

// productPlanner ranks the product networks nets for the S_2 engine
// (nil selects sort2d.Auto).
func productPlanner(nets []*product.Network, engine sort2d.Engine) (*Planner, error) {
	cands := make([]Candidate, len(nets))
	for i, net := range nets {
		cands[i] = ProductCandidate(net, engine)
	}
	return NewPlanner(cands)
}

// TestPlannerPicksCheapestCovering: among candidates that cover a
// request, the planner returns the one with the fewest predicted
// rounds, falling back to larger networks only when the size demands
// it.
func TestPlannerPicksCheapestCovering(t *testing.T) {
	grid16 := product.MustNew(graph.Path(4), 2) // 16 nodes
	cube16 := product.MustNew(graph.K2(), 4)    // 16 nodes
	cube32 := product.MustNew(graph.K2(), 5)    // 32 nodes
	pl, err := productPlanner([]*product.Network{cube32, grid16, cube16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.MaxKeys(); got != 32 {
		t.Fatalf("MaxKeys = %d, want 32", got)
	}

	eng := sort2d.Auto{}
	cheap16 := grid16
	if core.PredictedRounds(cube16, eng) < core.PredictedRounds(grid16, eng) {
		cheap16 = cube16
	}
	for _, n := range []int{1, 7, 16} {
		plan, err := pl.For(n)
		if err != nil {
			t.Fatalf("For(%d): %v", n, err)
		}
		if plan.Name() != cheap16.Name() {
			t.Fatalf("For(%d) chose %s (%d rounds), want %s", n, plan.Name(), plan.Rounds, cheap16.Name())
		}
	}
	plan, err := pl.For(17)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name() != cube32.Name() {
		t.Fatalf("For(17) chose %s, want %s", plan.Name(), cube32.Name())
	}
}

// TestPlannerRejects: sizes outside the candidate range yield the typed
// errors admission branches on.
func TestPlannerRejects(t *testing.T) {
	pl, err := productPlanner([]*product.Network{product.MustNew(graph.K2(), 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.For(9); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("For(9) = %v, want ErrTooLarge", err)
	}
	if _, err := pl.For(0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("For(0) = %v, want ErrEmpty", err)
	}
	if plan, err := pl.For(8); err != nil || plan.Nodes() != 8 {
		t.Fatalf("For(8) = %v, %v", plan, err)
	}
}

// TestPlannerNeedsCandidates: an empty candidate set or a zero
// candidate is a construction error, not a latent panic.
func TestPlannerNeedsCandidates(t *testing.T) {
	if _, err := NewPlanner(nil); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	if _, err := NewPlanner([]Candidate{{}}); err == nil {
		t.Fatal("zero candidate accepted")
	}
}

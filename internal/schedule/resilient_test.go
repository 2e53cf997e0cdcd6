package schedule

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

func nodeKeys(n int, seed int64) []simnet.Key {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]simnet.Key, n)
	for i := range ks {
		ks[i] = simnet.Key(rng.Intn(1000))
	}
	return ks
}

func sortedCopy(ks []simnet.Key) []simnet.Key {
	cp := append([]simnet.Key(nil), ks...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp
}

// A nil or quiet plan is handed back to the caller before any key
// moves: ErrQuietPlan, a zero clock, the keys untouched. The caller
// delegates to the plain replay, which sorts them on the program's own
// clock (root SortResilient does so through CompiledNetwork.Sort).
func TestResilientQuietDelegates(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := nodeKeys(net.Nodes(), 1)
	if _, err := (ExecBackend{}).Run(prog, want); err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, faults.NewPlan(faults.Config{Seed: 9})} {
		got := nodeKeys(net.Nodes(), 1)
		orig := append([]simnet.Key(nil), got...)
		clk, err := ResilientBackend{Plan: plan}.Run(prog, got)
		if !errors.Is(err, ErrQuietPlan) {
			t.Fatalf("plan %v: error %v, want ErrQuietPlan", plan, err)
		}
		if clk != (simnet.Clock{}) {
			t.Errorf("plan %v: rejected run charged %+v", plan, clk)
		}
		for i := range orig {
			if got[i] != orig[i] {
				t.Fatalf("plan %v: rejected run moved the key at node %d", plan, i)
			}
		}
		clk, err = ExecBackend{}.Run(prog, got)
		if err != nil {
			t.Fatal(err)
		}
		if clk != prog.Clock() {
			t.Errorf("delegate clock %+v != program clock %+v", clk, prog.Clock())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delegate run diverged from plain backend at node %d", i)
			}
		}
	}
}

// Under drop, stall and corruption rates at the acceptance ceiling
// (≤5%), the resilient backend heals everything: snake-sorted output,
// key multiset intact, recovery visibly charged.
func TestResilientHealsAcrossFamilies(t *testing.T) {
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(4), 2},
		{graph.Cycle(5), 2},
		{graph.K2(), 4},
		{graph.CompleteBinaryTree(3), 2}, // routed exchanges in the base program
		{graph.Star(4), 2},
	}
	for _, c := range cfgs {
		net := product.MustNew(c.g, c.r)
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := nodeKeys(net.Nodes(), 7)
		want := sortedCopy(keys)
		plan := faults.NewPlan(faults.Config{Seed: 13, DropRate: 0.05, StallRate: 0.03, CorruptRate: 0.05})
		clk, err := ResilientBackend{Plan: plan}.Run(prog, keys)
		if err != nil {
			t.Fatalf("%s: %v (counters %+v)", net.Name(), err, plan.Counters())
		}
		if !snakeSorted(net, keys) {
			t.Fatalf("%s: output not snake-sorted", net.Name())
		}
		got := sortedCopy(keys)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: key multiset changed", net.Name())
			}
		}
		c := clk.Faults
		if c.Injected == 0 {
			t.Errorf("%s: nothing injected at 5%% rates", net.Name())
		}
		if c.Corrupted > 0 && c.Detected == 0 {
			t.Errorf("%s: corruption injected but never detected: %+v", net.Name(), c)
		}
		if clk.RecoveryRounds == 0 {
			t.Errorf("%s: recovery charged no rounds despite %d injections", net.Name(), c.Injected)
		}
		if clk.Rounds != prog.Rounds()+clk.RecoveryRounds {
			t.Errorf("%s: rounds %d != base %d + recovery %d", net.Name(), clk.Rounds, prog.Rounds(), clk.RecoveryRounds)
		}
	}
}

// Replays with the same fault seed are reproducible: byte-identical
// keys and identical clocks (counters included).
func TestResilientDeterministic(t *testing.T) {
	net := product.MustNew(graph.Cycle(4), 3)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]simnet.Key, simnet.Clock) {
		keys := nodeKeys(net.Nodes(), 3)
		plan := faults.NewPlan(faults.Config{Seed: 99, DropRate: 0.05, StallRate: 0.02, CorruptRate: 0.08})
		clk, err := ResilientBackend{Plan: plan, CheckpointEvery: 8}.Run(prog, keys)
		if err != nil {
			t.Fatal(err)
		}
		return keys, clk
	}
	k1, c1 := run()
	k2, c2 := run()
	if c1 != c2 {
		t.Fatalf("same seed, clocks diverged:\n%+v\n%+v", c1, c2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("same seed, keys diverged at node %d", i)
		}
	}
}

// A dead link degrades the program gracefully: the affected exchanges
// are re-priced as routed detours (slower, counted) and the sort still
// completes correctly.
func TestResilientDeadLinkDegrades(t *testing.T) {
	net := product.MustNew(graph.Cycle(5), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := nodeKeys(net.Nodes(), 5)
	want := sortedCopy(keys)
	plan := faults.NewPlan(faults.Config{
		Seed:      3,
		DeadLinks: []faults.FactorEdge{{Dim: 1, U: 0, V: 1}},
	})
	clk, err := ResilientBackend{Plan: plan}.Run(prog, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !snakeSorted(net, keys) {
		t.Fatal("degraded run not snake-sorted")
	}
	got := sortedCopy(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("degraded run changed the key multiset")
		}
	}
	if clk.Faults.DeadLinks != 1 {
		t.Errorf("dead links counted %d, want 1", clk.Faults.DeadLinks)
	}
	if clk.Faults.Rerouted == 0 {
		t.Error("no pair occurrence counted as rerouted")
	}
	if clk.Rounds <= prog.Rounds() {
		t.Errorf("degraded rounds %d not above fault-free %d", clk.Rounds, prog.Rounds())
	}
	if clk.RoutedPhases <= prog.Clock().RoutedPhases {
		t.Errorf("degraded routed phases %d not above fault-free %d", clk.RoutedPhases, prog.Clock().RoutedPhases)
	}
	// A forced dead link that would disconnect the factor is refused.
	bad := faults.NewPlan(faults.Config{DeadLinks: []faults.FactorEdge{{Dim: 1, U: 0, V: 2}}})
	if _, err := (ResilientBackend{Plan: bad}.Run(prog, nodeKeys(net.Nodes(), 5))); err == nil {
		t.Error("non-edge dead link accepted")
	}
}

// At a saturating corruption rate the per-window budget runs out on
// some single-phase window: the run reports ErrUnrecoverable (and
// counts it) rather than silently returning bad data.
func TestResilientReportsUnrecoverable(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := nodeKeys(net.Nodes(), 2)
	plan := faults.NewPlan(faults.Config{Seed: 1, CorruptRate: 1})
	clk, err := ResilientBackend{Plan: plan, MaxRetries: 1}.Run(prog, keys)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
	if clk.Faults.Unrecoverable == 0 {
		t.Errorf("unrecoverable not counted: %+v", clk.Faults)
	}
	if clk.Faults.Detected == 0 {
		t.Errorf("corruption never detected: %+v", clk.Faults)
	}
}

package randsort

import (
	"errors"
	"strings"
	"testing"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// testNets covers a Hamiltonian-labeled factor (path), the hypercube
// (path-of-2 power), and a non-Hamiltonian factor (complete binary
// tree) whose snake steps need routing.
func testNets(t *testing.T) map[string]*product.Network {
	t.Helper()
	return map[string]*product.Network{
		"grid4x4":  product.MustNew(graph.Path(4), 2),
		"cube2^5":  product.MustNew(graph.Path(2), 5),
		"cbt2-sq":  product.MustNew(graph.CompleteBinaryTree(2), 2),
		"petersen": product.MustNew(graph.Petersen(), 1),
	}
}

// shuffled returns a deterministic permutation of 0..n-1 as keys.
func shuffled(n int, seed int64) []simnet.Key {
	keys := make([]simnet.Key, n)
	for i := range keys {
		keys[i] = simnet.Key(i)
	}
	st := newStream(seed, 0xF00D, 0)
	for i := n - 1; i > 0; i-- {
		j := int(st.next() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// reversed returns n..1 as keys (maximal inversion count).
func reversed(n int) []simnet.Key {
	keys := make([]simnet.Key, n)
	for i := range keys {
		keys[i] = simnet.Key(n - i)
	}
	return keys
}

func requireSorted(t *testing.T, net *product.Network, keys []simnet.Key) {
	t.Helper()
	if !snakeSorted(net, keys) {
		t.Fatalf("keys not sorted in snake order: %v", keys)
	}
}

func TestVariantNames(t *testing.T) {
	for _, v := range Variants() {
		got, err := VariantByName(v.String())
		if err != nil || got != v {
			t.Fatalf("VariantByName(%q) = %v, %v", v.String(), got, err)
		}
	}
	if v, err := VariantByName(""); err != nil || v != QUniform {
		t.Fatalf("empty name: got %v, %v; want QUniform", v, err)
	}
	if _, err := VariantByName("bogus"); err == nil {
		t.Fatal("unknown variant name accepted")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Q" {
			t.Fatalf("want *ConfigError{Field: Q}, got %v", err)
		}
	}
}

func TestNewValidatesConfig(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	cases := []struct {
		name  string
		net   *product.Network
		cfg   Config
		field string
	}{
		{"nil net", nil, Config{}, "Net"},
		{"bad variant", net, Config{Variant: Variant(99)}, "Variant"},
		{"negative MaxRounds", net, Config{MaxRounds: -1}, "MaxRounds"},
		{"negative CheckEvery", net, Config{CheckEvery: -2}, "CheckEvery"},
		{"negative DrawsPerRound", net, Config{DrawsPerRound: -1}, "DrawsPerRound"},
		{"negative SamplePairs", net, Config{SamplePairs: -3}, "SamplePairs"},
		{"negative VerifyVectors", net, Config{VerifyVectors: -64}, "VerifyVectors"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.net, tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("want field %q, got %q (%v)", tc.field, ce.Field, err)
			}
			if msg := ce.Error(); !strings.Contains(msg, tc.field) {
				t.Fatalf("error message %q omits the field", msg)
			}
		})
	}
}

func TestPoolCoversSnakeAndEdges(t *testing.T) {
	for name, net := range testNets(t) {
		t.Run(name, func(t *testing.T) {
			pool := buildPool(net, nil)
			type key [2]int
			have := make(map[key]candidate, len(pool))
			for _, c := range pool {
				k := key{c.lo, c.hi}
				if c.hi < c.lo {
					k = key{c.hi, c.lo}
				}
				if _, dup := have[k]; dup {
					t.Fatalf("duplicate candidate %v", k)
				}
				have[k] = c
				if net.SnakePos(c.lo) >= net.SnakePos(c.hi) {
					t.Fatalf("candidate %v not snake-oriented", c)
				}
			}
			// Every snake-consecutive pair is present and flagged.
			for pos := 0; pos+1 < net.Nodes(); pos++ {
				a, b := net.NodeAtSnake(pos), net.NodeAtSnake(pos+1)
				k := key{min(a, b), max(a, b)}
				c, ok := have[k]
				if !ok || !c.snake {
					t.Fatalf("snake step %d (%d,%d) missing or unflagged", pos, a, b)
				}
			}
			// Every network edge is present.
			edges := 0
			for a := 0; a < net.Nodes(); a++ {
				for _, b := range net.Neighbors(a) {
					if b <= a {
						continue
					}
					edges++
					if _, ok := have[key{a, b}]; !ok {
						t.Fatalf("edge (%d,%d) missing from pool", a, b)
					}
				}
			}
			if len(pool) < edges {
				t.Fatalf("pool %d smaller than edge count %d", len(pool), edges)
			}
		})
	}
}

func TestSortConvergesFaultFree(t *testing.T) {
	for name, net := range testNets(t) {
		for _, v := range Variants() {
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				eng, err := New(net, Config{Variant: v, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				keys := shuffled(net.Nodes(), 7)
				rep, err := eng.Sort(keys)
				if err != nil {
					t.Fatalf("Sort: %v (report %+v)", err, rep)
				}
				if !rep.Converged || !rep.VerifierAccepted || !rep.ScrubSorted {
					t.Fatalf("not fully accepted: %+v", rep)
				}
				if rep.Faults != (faults.Counters{}) {
					t.Fatalf("fault counters nonzero without a plan: %+v", rep.Faults)
				}
				if rep.VerifyRuns < 1 || rep.VerifyVectors == 0 {
					t.Fatalf("verifier did not run: %+v", rep)
				}
				requireSorted(t, net, keys)
			})
		}
	}
}

func TestSortDeterministicPerSeed(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	run := func(seed int64) (*Report, []simnet.Key) {
		eng, err := New(net, Config{Variant: QSnakeBiased, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		keys := shuffled(net.Nodes(), 3)
		if _, err := eng.Sort(keys); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Sort(shuffled(net.Nodes(), 3))
		if err != nil {
			t.Fatal(err)
		}
		return rep, keys
	}
	a, _ := run(11)
	b, _ := run(11)
	if *a != *b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSortAlreadySorted(t *testing.T) {
	net := product.MustNew(graph.Path(2), 4)
	eng, err := New(net, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]simnet.Key, net.Nodes())
	for pos := 0; pos < net.Nodes(); pos++ {
		keys[net.NodeAtSnake(pos)] = simnet.Key(pos)
	}
	rep, err := eng.Sort(keys)
	if err != nil {
		t.Fatal(err)
	}
	// Acceptance requires the realized comparator sequence to certify,
	// so even a sorted input runs until the sequence is a (sampled)
	// sorting network — but every sample gate passes along the way.
	if !rep.Converged || rep.SamplePasses != rep.Checks {
		t.Fatalf("sorted input should pass every gate: %+v", rep)
	}
	requireSorted(t, net, keys)
}

func TestSortRoundCap(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	eng, err := New(net, Config{Seed: 5, MaxRounds: 2, CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Sort(reversed(net.Nodes()))
	if !errors.Is(err, ErrRoundCap) {
		t.Fatalf("want ErrRoundCap, got %v", err)
	}
	if rep == nil || rep.Converged || rep.Rounds != 2 {
		t.Fatalf("unexpected cap report: %+v", rep)
	}
}

func TestSortKeyCountMismatch(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	eng, err := New(net, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sort(make([]simnet.Key, 3)); err == nil {
		t.Fatal("short key slice accepted")
	}
}

func TestSortDegradesUnderFaults(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	base, err := New(net, Config{Variant: QSnakeBiased, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := base.Sort(shuffled(net.Nodes(), 21))
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(faults.Config{Seed: 77, DropRate: 0.5, StallRate: 0.2})
	eng, err := New(net, Config{Variant: QSnakeBiased, Seed: 9, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	keys := shuffled(net.Nodes(), 21)
	rep, err := eng.Sort(keys)
	if err != nil {
		t.Fatalf("faulted sort aborted: %v (report %+v)", err, rep)
	}
	if !rep.Converged || !rep.ScrubSorted {
		t.Fatalf("faulted run did not converge: %+v", rep)
	}
	if rep.Faults.Dropped == 0 || rep.Faults.Stalled == 0 {
		t.Fatalf("fault thinning never fired: %+v", rep.Faults)
	}
	if rep.Rounds <= baseRep.Rounds {
		t.Fatalf("faults should cost rounds: faulted %d <= fault-free %d", rep.Rounds, baseRep.Rounds)
	}
	requireSorted(t, net, keys)
}

func TestSortSurvivesCorruption(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	plan := faults.NewPlan(faults.Config{Seed: 3, CorruptRate: 0.05})
	eng, err := New(net, Config{Seed: 13, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	keys := shuffled(net.Nodes(), 2)
	rep, err := eng.Sort(keys)
	if err != nil {
		t.Fatalf("corrupted sort: %v (report %+v)", err, rep)
	}
	if rep.Faults.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", rep.Faults)
	}
	requireSorted(t, net, keys)
}

func TestSortWithDeadLinks(t *testing.T) {
	// Complete(3) keeps the factor connected when an edge dies; (0,2)
	// is never snake-consecutive (radix-3 Gray steps move by one), so
	// the kill genuinely shrinks the pool.
	net := product.MustNew(graph.Complete(3), 2)
	plan := faults.NewPlan(faults.Config{
		Seed:      8,
		DeadLinks: []faults.FactorEdge{{Dim: 1, U: 0, V: 2}},
	})
	eng, err := New(net, Config{Seed: 17, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	full := buildPool(net, nil)
	if eng.Pool() >= len(full) {
		t.Fatalf("dead link did not shrink the pool: %d >= %d", eng.Pool(), len(full))
	}
	keys := shuffled(net.Nodes(), 4)
	rep, err := eng.Sort(keys)
	if err != nil {
		t.Fatalf("dead-link sort: %v (report %+v)", err, rep)
	}
	if rep.Faults.DeadLinks == 0 {
		t.Fatalf("dead links not counted: %+v", rep.Faults)
	}
	requireSorted(t, net, keys)
}

func TestSortEmitsMetrics(t *testing.T) {
	net := product.MustNew(graph.Path(2), 4)
	m := obs.NewMetrics()
	eng, err := New(net, Config{Seed: 6, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sort(shuffled(net.Nodes(), 1)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, name := range []string{"randsort.rounds", "randsort.draws", "randsort.applied", "randsort.checks", "randsort.verify.runs", "randsort.verify.vectors"} {
		if snap.Counters[name] == 0 {
			t.Fatalf("counter %s not observed: %+v", name, snap.Counters)
		}
	}
	h, ok := snap.Histograms["randsort.converge.rounds"]
	if !ok || h.Count != 1 {
		t.Fatalf("convergence histogram missing or empty: %+v", snap.Histograms)
	}
}

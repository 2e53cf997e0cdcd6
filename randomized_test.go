package productsort

import (
	"errors"
	"sort"
	"testing"
)

func TestSortRandomizedConverges(t *testing.T) {
	nw, err := Grid(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"uniform", "snake-biased"} {
		t.Run(q, func(t *testing.T) {
			keys := shuffled(nw.Nodes(), 11)
			want := append([]Key(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			res, err := c.SortRandomized(keys, RandomizedConfig{Q: q, Seed: 1})
			if err != nil {
				t.Fatalf("SortRandomized: %v", err)
			}
			if !IsSorted(res.Keys) {
				t.Fatal("output not sorted")
			}
			for i := range want {
				if res.Keys[i] != want[i] {
					t.Fatal("key multiset changed")
				}
			}
			r := res.Random
			if r == nil || !r.Converged || !r.VerifierAccepted || !r.ScrubSorted {
				t.Fatalf("incomplete acceptance: %+v", r)
			}
			if r.Variant != q {
				t.Fatalf("variant %q, want %q", r.Variant, q)
			}
			if res.Engine != "randsort-"+q {
				t.Fatalf("engine %q", res.Engine)
			}
			if res.Rounds != r.RoundCharge || res.Rounds < r.Rounds {
				t.Fatalf("round accounting inconsistent: Result %d, report %+v", res.Rounds, r)
			}
			if res.Faults != nil {
				t.Fatalf("fault report without faults: %+v", res.Faults)
			}
		})
	}
}

func TestSortRandomizedUnderFaults(t *testing.T) {
	nw, err := Grid(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	keys := shuffled(nw.Nodes(), 4)
	res, err := c.SortRandomized(keys, RandomizedConfig{
		Q:    "snake-biased",
		Seed: 2,
		Faults: FaultConfig{
			Seed:      9,
			DropRate:  0.4,
			StallRate: 0.2,
		},
	})
	if err != nil {
		t.Fatalf("faulted randomized sort aborted: %v", err)
	}
	if !IsSorted(res.Keys) || !res.Random.Converged {
		t.Fatalf("did not converge sorted: %+v", res.Random)
	}
	if res.Faults == nil || res.Faults.Dropped == 0 || res.Faults.Stalled == 0 {
		t.Fatalf("fault accounting missing: %+v", res.Faults)
	}
}

func TestSortRandomizedRoundCap(t *testing.T) {
	nw, err := Grid(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SortRandomized(shuffled(nw.Nodes(), 8), RandomizedConfig{Seed: 3, MaxRounds: 2})
	if !errors.Is(err, ErrRoundCap) {
		t.Fatalf("want ErrRoundCap, got %v", err)
	}
	if res == nil || res.Random == nil || res.Random.Converged {
		t.Fatalf("cap should return the degraded result: %+v", res)
	}
}

func TestSortRandomizedRejectsBadConfig(t *testing.T) {
	nw, err := Grid(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SortRandomized(shuffled(nw.Nodes(), 1), RandomizedConfig{Q: "bogus"}); err == nil {
		t.Error("unknown q variant accepted")
	}
	if _, err := c.SortRandomized(shuffled(nw.Nodes(), 1), RandomizedConfig{MaxRounds: -5}); err == nil {
		t.Error("negative MaxRounds accepted")
	}
	if _, err := c.SortRandomized(make([]Key, 3), RandomizedConfig{}); err == nil {
		t.Error("short key slice accepted")
	}
}

func TestSortRandomizedDeterministic(t *testing.T) {
	nw, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RandomizedConfig{Q: "uniform", Seed: 6, Faults: FaultConfig{Seed: 1, DropRate: 0.3}}
	a, err := c.SortRandomized(shuffled(nw.Nodes(), 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SortRandomized(shuffled(nw.Nodes(), 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Random != *b.Random {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Random, b.Random)
	}
}

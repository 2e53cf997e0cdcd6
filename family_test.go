package productsort

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// TestCompileFamilyDispatch: every family compiles through the one
// CompileFamily entry point into a CompiledNetwork that sorts and
// reports its family.
func TestCompileFamilyDispatch(t *testing.T) {
	for _, family := range []string{FamilyProduct, FamilyMultiway, FamilyPeriodic} {
		c, err := CompileFamily(family, 16)
		if err != nil {
			t.Fatalf("CompileFamily(%s, 16): %v", family, err)
		}
		if c.Family() != family {
			t.Fatalf("CompileFamily(%s).Family() = %q", family, c.Family())
		}
		if c.Rounds() < 1 || c.Size() < 1 {
			t.Fatalf("%s: rounds %d size %d", family, c.Rounds(), c.Size())
		}
		rng := rand.New(rand.NewSource(7))
		keys := make([]Key, 16)
		for i := range keys {
			keys[i] = Key(rng.Intn(100))
		}
		res, err := c.Sort(keys)
		if err != nil {
			t.Fatalf("%s Sort: %v", family, err)
		}
		if !IsSorted(res.Keys) {
			t.Fatalf("%s Sort left %v", family, res.Keys)
		}
		if res.Rounds != c.Rounds() {
			t.Fatalf("%s: result rounds %d != compiled rounds %d", family, res.Rounds, c.Rounds())
		}
	}
}

// TestEmittedFamiliesBatchAndCertify: the emitted families run through
// the same columnar batch kernel and bitsliced certifier as the product
// family, unchanged.
func TestEmittedFamiliesBatchAndCertify(t *testing.T) {
	for _, family := range []string{FamilyMultiway, FamilyPeriodic} {
		c, err := CompileFamily(family, 16)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		cert, err := c.Certify(nil)
		if err != nil {
			t.Fatalf("%s Certify: %v", family, err)
		}
		if !cert.Certified || !cert.Exhaustive {
			t.Fatalf("%s: certified=%v exhaustive=%v witness=%+v",
				family, cert.Certified, cert.Exhaustive, cert.Witness)
		}
		rng := rand.New(rand.NewSource(11))
		batch := make([][]Key, 8)
		for i := range batch {
			batch[i] = make([]Key, 16)
			for j := range batch[i] {
				batch[i][j] = Key(rng.Intn(50))
			}
		}
		if err := c.SortBatch(batch, 2); err != nil {
			t.Fatalf("%s SortBatch: %v", family, err)
		}
		for i, keys := range batch {
			if !IsSorted(keys) {
				t.Fatalf("%s batch[%d] unsorted: %v", family, i, keys)
			}
		}
	}
}

// TestCompileMultiwayNSorterWidths: the sorter-width knob changes the
// construction but never the contract.
func TestCompileMultiwayNSorterWidths(t *testing.T) {
	for _, s := range []int{2, 4, 8} {
		c, err := CompileMultiwayN(8, s)
		if err != nil {
			t.Fatalf("sorter %d: %v", s, err)
		}
		cert, err := c.Certify(nil)
		if err != nil || !cert.Certified || !cert.Exhaustive {
			t.Fatalf("sorter %d: cert %+v err %v", s, cert, err)
		}
	}
}

// TestCompileFamilyRejects pins the shape validation: power-of-two
// sizes only, known family names only.
func TestCompileFamilyRejects(t *testing.T) {
	for _, family := range []string{FamilyProduct, FamilyMultiway, FamilyPeriodic} {
		for _, n := range []int{0, 1, 3, 12} {
			if _, err := CompileFamily(family, n); err == nil {
				t.Errorf("CompileFamily(%s, %d) accepted", family, n)
			}
		}
	}
	if _, err := CompileFamily("fancy", 8); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := CompileMultiwayN(8, 3); err == nil {
		t.Error("non-power-of-two sorter width accepted")
	}
}

// TestEmittedFamilyGuards: product-geometry entry points reject emitted
// families with the typed sentinel instead of misbehaving on the 1-D
// host.
func TestEmittedFamilyGuards(t *testing.T) {
	for _, family := range []string{FamilyMultiway, FamilyPeriodic} {
		c, err := CompileFamily(family, 8)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]Key, 8)
		if _, err := c.SortResilient(keys, FaultConfig{}); !errors.Is(err, ErrUnsupportedFamily) {
			t.Errorf("%s SortResilient: %v, want ErrUnsupportedFamily", family, err)
		}
		if _, err := c.SortRandomized(keys, RandomizedConfig{}); !errors.Is(err, ErrUnsupportedFamily) {
			t.Errorf("%s SortRandomized: %v, want ErrUnsupportedFamily", family, err)
		}
	}
	// The product family stays unguarded: a zero fault config must work.
	c, err := CompileFamily(FamilyProduct, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SortResilient(make([]Key, 8), FaultConfig{}); err != nil {
		t.Fatalf("product SortResilient: %v", err)
	}
}

// TestServerFamilies drives the mixed-family server through the public
// API: with the emitted families enabled, a size the periodic network
// wins must come back sorted and tagged periodic, and the family flush
// counters must move.
func TestServerFamilies(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		MaxKeys:  16,
		Families: []string{FamilyMultiway, FamilyPeriodic},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	out, err := srv.Submit(context.Background(), []Key{9, 3, 7, 1, 8, 2, 6, 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := <-out
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Family != FamilyPeriodic || rep.Network != "periodic[8]" {
		t.Fatalf("size-8 reply family %q network %q, want periodic/periodic[8]", rep.Family, rep.Network)
	}
	if !sort.SliceIsSorted(rep.Keys, func(i, j int) bool { return rep.Keys[i] < rep.Keys[j] }) {
		t.Fatalf("unsorted reply: %v", rep.Keys)
	}

	got, err := srv.SortKeys(context.Background(), []Key{4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(got) {
		t.Fatalf("size-3 reply unsorted: %v", got)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counters["serve.planner.family.periodic"] < 1 {
		t.Fatalf("serve.planner.family.periodic missing from %v", snap.Counters)
	}

	if _, err := NewServer(ServerConfig{Families: []string{"fancy"}}); err == nil {
		t.Error("unknown family accepted by NewServer")
	}
}

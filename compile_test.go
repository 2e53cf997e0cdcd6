package productsort

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"

	"productsort/internal/schedule"
)

// TestCompiledNetworkSort: the compiled path returns the same result as
// the (observer-forced) direct path, and repeated Sort calls on one
// network perform zero schedule construction after the first.
func TestCompiledNetworkSort(t *testing.T) {
	schedule.ResetCache()
	defer schedule.ResetCache()
	nw, err := Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]Key, nw.Nodes())
	for i := range keys {
		keys[i] = Key(rng.Intn(200))
	}

	// Direct path (observer forces the live machine).
	s, err := NewSorter(WithObserver(func(string, []Key) {}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Sort(nw, append([]Key(nil), keys...))
	if err != nil {
		t.Fatal(err)
	}

	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != want.Rounds {
		t.Errorf("compiled rounds %d != direct %d", c.Rounds(), want.Rounds)
	}
	got, err := c.Sort(append([]Key(nil), keys...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.S2Phases != want.S2Phases || got.Sweeps != want.Sweeps {
		t.Errorf("compiled result %+v != direct %+v", got, want)
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("key %d: got %d want %d", i, got.Keys[i], want.Keys[i])
		}
	}

	// Repeated sorts (plain Sort included) must not rebuild the schedule.
	compiles := schedule.Stats().Compiles
	for i := 0; i < 5; i++ {
		if _, err := Sort(nw, append([]Key(nil), keys...)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sort(append([]Key(nil), keys...)); err != nil {
			t.Fatal(err)
		}
	}
	if got := schedule.Stats().Compiles; got != compiles {
		t.Errorf("repeated sorts recompiled: %d constructions, want %d", got, compiles)
	}
}

// TestCompiledSortAllocs pins the untraced Sort to the one-set replay
// of the executed stream: warm, it allocates at most five objects per
// call on K₂¹⁰, none per key, and its Result equals the traced Sort's,
// which walks every pair of the ops — keys in both orders and every
// counter. A warm Sorter.Sort allocates at most one object more.
func TestCompiledSortAllocs(t *testing.T) {
	nw, err := Hypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, nw.Nodes())
	rng := rand.New(rand.NewSource(10))
	for i := range keys {
		keys[i] = Key(rng.Int63n(1 << 40))
	}
	got, err := c.Sort(keys) // warm: lowers the program and fills the slab pool
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewSorter(WithTracer(NewMetricsCollector(nil)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := traced.Sort(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("untraced Sort differs from the traced unpruned walk:\n got %+v\nwant %+v", got, want)
	}
	// A GC mid-measurement may empty the slab pool; park it so the
	// count measures the call, not collection timing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Sort(keys); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("warm untraced Sort on K2^10 allocates %.1f per call, want <= 5", allocs)
	}
	// Sorter.Sort without an observer finds the cached program by the
	// network's memoized signature: one allocation above the compiled
	// Sort, its CompiledNetwork.
	s, err := NewSorter()
	if err != nil {
		t.Fatal(err)
	}
	sorterAllocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Sort(nw, keys); err != nil {
			t.Fatal(err)
		}
	})
	if sorterAllocs > allocs+1 {
		t.Fatalf("warm Sorter.Sort on K2^10 allocates %.1f per call, want <= %.1f (CompiledNetwork.Sort's %.1f + 1)",
			sorterAllocs, allocs+1, allocs)
	}
}

// TestSortBatch pushes several key sets through one compiled program
// and verifies each ends sorted.
func TestSortBatch(t *testing.T) {
	nw, err := Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const m = 9
	batch := make([][]Key, m)
	want := make([][]Key, m)
	for i := range batch {
		batch[i] = make([]Key, nw.Nodes())
		for j := range batch[i] {
			batch[i][j] = Key(rng.Intn(100))
		}
		want[i] = append([]Key(nil), batch[i]...)
		sort.Slice(want[i], func(a, b int) bool { return want[i][a] < want[i][b] })
	}
	if err := c.SortBatch(batch, 3); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		for j := range batch[i] {
			if batch[i][j] != want[i][j] {
				t.Fatalf("batch %d key %d: got %d want %d", i, j, batch[i][j], want[i][j])
			}
		}
	}
	// Shape errors surface before any work.
	if err := c.SortBatch([][]Key{make([]Key, 3)}, 2); err == nil {
		t.Error("want error for wrong key count")
	}
}

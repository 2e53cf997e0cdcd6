package schedule

import (
	"math"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// mixedBatch builds a batch of snake-order items of the given sizes
// with deterministic pseudo-random keys (including values equal to the
// sentinel, which must still sort correctly — equal keys are
// indistinguishable, so padding cannot corrupt the multiset).
func mixedBatch(sizes []int, seed int64) [][]simnet.Key {
	batch := make([][]simnet.Key, len(sizes))
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i, n := range sizes {
		keys := make([]simnet.Key, n)
		for j := range keys {
			x = x*2862933555777941757 + 3037000493
			switch x % 7 {
			case 0:
				keys[j] = math.MaxInt64
			default:
				keys[j] = simnet.Key(x % 1000)
			}
		}
		batch[i] = keys
	}
	return batch
}

// scalarSnake is the per-item oracle for batch replay: one snake-order
// item through the scalar ExecBackend, via its own transpose and
// sentinel padding. It returns the sorted copy; keys is untouched.
func scalarSnake(t testing.TB, prog *Program, keys []simnet.Key) []simnet.Key {
	t.Helper()
	perm := prog.SnakePerm()
	scratch := make([]simnet.Key, len(perm))
	for pos, k := range keys {
		scratch[perm[pos]] = k
	}
	for pos := len(keys); pos < len(scratch); pos++ {
		scratch[perm[pos]] = Sentinel
	}
	if _, err := (ExecBackend{}).Run(prog, scratch); err != nil {
		t.Fatal(err)
	}
	out := make([]simnet.Key, len(keys))
	for pos := range out {
		out[pos] = scratch[perm[pos]]
	}
	return out
}

// TestCompileUncachedBypassesCache: CompileUncached must build every
// time and never touch the process-wide cache counters' hit/miss path.
func TestCompileUncachedBypassesCache(t *testing.T) {
	ResetCache()
	net := product.MustNew(graph.Path(3), 2)
	p1, err := CompileUncached(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileUncached(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("CompileUncached returned a shared program")
	}
	st := Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("CompileUncached touched the cache: %+v", st)
	}
	if st.Compiles != 2 {
		t.Fatalf("expected 2 compiles, got %d", st.Compiles)
	}
	// The two builds are behaviourally identical to the cached one.
	cached, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Rounds() != cached.Rounds() || p1.Size() != cached.Size() {
		t.Fatalf("uncached program differs: rounds %d vs %d, size %d vs %d",
			p1.Rounds(), cached.Rounds(), p1.Size(), cached.Size())
	}
}

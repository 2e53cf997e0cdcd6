package extsort

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// compiledSorter builds the certified-network run sorter over a 16-node
// hypercube — small enough that every test shape exercises ragged-tail
// padding, real enough that the runs go through the same columnar
// replay production uses.
func compiledSorter(t testing.TB) *NetworkSorter {
	t.Helper()
	prog, err := schedule.Compile(product.MustNew(graph.K2(), 4), sort2d.Auto{})
	if err != nil {
		t.Fatal(err)
	}
	return NewNetworkSorter(prog, 1)
}

// oracle returns keys sorted by the standard library.
func oracle(keys []Key) []Key {
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

// runSort drives Sort over an in-memory stream and returns the output
// and stats.
func runSort(t *testing.T, keys []Key, sorter RunSorter, cfg Config) ([]Key, *Stats) {
	t.Helper()
	out := NewSliceWriter()
	stats, err := Sort(context.Background(), NewSliceReader(keys), out, sorter, cfg)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	return out.Keys(), stats
}

// sortAt is runSort with the fan-in forced to fanIn. The merge is
// correct at any fan-in of 2 or more (THEORY.md §15); one below the
// derived floor of 16 reaches deep merges on inputs small enough for a
// unit test.
func sortAt(t *testing.T, keys []Key, sorter RunSorter, cfg Config, fanIn int) ([]Key, *Stats) {
	t.Helper()
	p, err := cfg.normalize(sorter)
	if err != nil {
		t.Fatal(err)
	}
	p.fanIn = fanIn
	out := NewSliceWriter()
	stats, err := sortParams(context.Background(), NewSliceReader(keys), out, sorter, p)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	return out.Keys(), stats
}

// cappedSorter lowers a run sorter's ceiling, and with it the run size
// Sort derives: min(1024, max).
type cappedSorter struct {
	RunSorter
	max int
}

func (c cappedSorter) MaxRun() int { return c.max }

// checkEqual fails unless got matches the oracle for keys.
func checkEqual(t *testing.T, keys, got []Key, label string) {
	t.Helper()
	want := oracle(keys)
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys out, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: got %d want %d", label, i, got[i], want[i])
		}
	}
}

// adversarialShapes is the oracle equivalence battery's input matrix:
// every shape the merge or the run former could plausibly mishandle.
func adversarialShapes(runSize int) map[string][]Key {
	shapes := map[string][]Key{}
	rng := rand.New(rand.NewSource(7))
	n := runSize*7 + 3 // ragged tail by construction
	asc := make([]Key, n)
	desc := make([]Key, n)
	eq := make([]Key, n)
	rnd := make([]Key, n)
	for i := 0; i < n; i++ {
		asc[i] = Key(i - n/2)
		desc[i] = Key(n/2 - i)
		eq[i] = 42
		rnd[i] = Key(rng.Int63n(1<<40) - 1<<39)
	}
	shapes["already-sorted"] = asc
	shapes["reverse"] = desc
	shapes["all-equal"] = eq
	shapes["random"] = rnd
	shapes["empty"] = nil
	shapes["one-key"] = []Key{-9}
	// Run-size boundaries: exactly k runs, one short, one over.
	for _, d := range []int{-1, 0, 1} {
		m := runSize*4 + d
		keys := make([]Key, m)
		for i := range keys {
			keys[i] = Key(rng.Int63())
		}
		shapes[fmt.Sprintf("runsize%+d", d)] = keys
	}
	// Exactly one run, and one run minus/plus one key.
	for _, m := range []int{runSize - 1, runSize, runSize + 1} {
		keys := make([]Key, m)
		for i := range keys {
			keys[i] = Key(rng.Int63()) - 1<<62
		}
		shapes[fmt.Sprintf("one-run-%d", m)] = keys
	}
	return shapes
}

// TestSortStreamOracleNetwork: the full battery through the certified
// network run sorter, at fan-in 2 with one run per leaf (maximum merge
// depth) and at the default pre-merge batch with a fan-in wide enough
// for a single merge pass.
func TestSortStreamOracleNetwork(t *testing.T) {
	sorter := compiledSorter(t)
	runSize := sorter.MaxRun() // 16
	for _, fanIn := range []int{2, 64} {
		runBatch := 0
		if fanIn == 2 {
			runBatch = 1
		}
		for name, keys := range adversarialShapes(runSize) {
			t.Run(fmt.Sprintf("fanin%d/%s", fanIn, name), func(t *testing.T) {
				got, stats := sortAt(t, keys, sorter, Config{RunBatch: runBatch}, fanIn)
				checkEqual(t, keys, got, name)
				if want := int64(len(keys)); stats.Keys != want {
					t.Fatalf("stats.Keys = %d, want %d", stats.Keys, want)
				}
				if len(keys) > 0 && stats.Runs != int64((len(keys)+runSize-1)/runSize) {
					t.Fatalf("stats.Runs = %d for %d keys at run size %d", stats.Runs, len(keys), runSize)
				}
			})
		}
	}
}

// TestSortStreamSingleKeyRuns: a run sorter with a ceiling of one key
// degenerates run formation to per-key runs, RunBatch 1 makes every run
// its own merge leaf, and a tiny budget holds the fan-in at its floor
// of 16 — so the merge passes do all the sorting: 300 leaves merge in
// groups of 16 into 19, the next pass merges the first 4 so the final
// merge has exactly 16.
func TestSortStreamSingleKeyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := make([]Key, 300)
	for i := range keys {
		keys[i] = Key(rng.Intn(100) - 50)
	}
	got, stats := runSort(t, keys, SliceSorter{Max: 1},
		Config{RunBatch: 1, MemoryKeys: 1, SpillDir: t.TempDir()})
	checkEqual(t, keys, got, "single-key runs")
	if stats.Runs != int64(len(keys)) || stats.RunSize != 1 || stats.FanIn != minFanIn {
		t.Fatalf("Runs %d RunSize %d FanIn %d, want %d, 1 and %d", stats.Runs, stats.RunSize, stats.FanIn, len(keys), minFanIn)
	}
	if stats.MergePasses != 3 || stats.MaxFanIn != 16 {
		t.Fatalf("MergePasses %d MaxFanIn %d, want 3 and 16", stats.MergePasses, stats.MaxFanIn)
	}
}

// TestSortStreamSpill: a resident budget far below the input forces
// runs and intermediate merges through the spill file, and the output
// must still match the oracle byte for byte.
func TestSortStreamSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]Key, 80_000)
	for i := range keys {
		keys[i] = Key(rng.Int63() - 1<<62)
	}
	cfg := Config{
		RunBatch:   1,
		MemoryKeys: 1, // clamped up to the merge floor; below the input
		SpillDir:   t.TempDir(),
	}
	got, stats := runSort(t, keys, SliceSorter{Max: 512}, cfg)
	checkEqual(t, keys, got, "spill")
	if stats.SpilledRuns == 0 || stats.SpilledBytes == 0 {
		t.Fatalf("expected spilling, got stats %+v", stats)
	}
	if stats.MergePasses < 2 {
		t.Fatalf("MergePasses = %d, want >= 2 at fan-in %d over %d runs", stats.MergePasses, stats.FanIn, stats.Runs)
	}
}

// TestSortStreamSentinelKeys: keys at the sentinel value (MaxInt64)
// must survive the padding round-trip.
func TestSortStreamSentinelKeys(t *testing.T) {
	keys := []Key{schedule.Sentinel, 3, schedule.Sentinel, -1, 0, schedule.Sentinel - 1}
	// Runs of 4 keys on the 16-node network: both pad with sentinels.
	sorter := cappedSorter{compiledSorter(t), 4}
	got, _ := runSort(t, keys, sorter, Config{RunBatch: 1})
	checkEqual(t, keys, got, "sentinel keys")
}

// recordingSorter wraps a RunSorter and snapshots every run after
// sorting — the battery's independence hook: runs are verified sorted
// on their own, so a merge bug cannot be masked by (or blamed on) the
// run sorter.
type recordingSorter struct {
	inner RunSorter
	runs  [][]Key
}

func (r *recordingSorter) MaxRun() int { return r.inner.MaxRun() }

func (r *recordingSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	if err := r.inner.SortRuns(ctx, runs); err != nil {
		return err
	}
	for _, run := range runs {
		r.runs = append(r.runs, append([]Key(nil), run...))
	}
	return nil
}

// TestEveryRunSortedIndependently: the property test behind the merge's
// precondition. Every run handed to the merge is snapshotted and
// verified sorted with the stdlib — independently of whether the final
// output checks out — over randomized sizes and run sizes.
func TestEveryRunSortedIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := compiledSorter(t)
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		runSize := 1 + rng.Intn(base.MaxRun())
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(rng.Int63n(1024) - 512) // narrow domain: many duplicates
		}
		rec := &recordingSorter{inner: cappedSorter{base, runSize}}
		got, stats := runSort(t, keys, rec, Config{RunBatch: 1 + rng.Intn(4)})
		var total int
		for i, run := range rec.runs {
			if !sort.SliceIsSorted(run, func(a, b int) bool { return run[a] < run[b] }) {
				t.Fatalf("trial %d: run %d (%d keys) entered the merge unsorted", trial, i, len(run))
			}
			total += len(run)
		}
		if total != n {
			t.Fatalf("trial %d: runs carry %d keys, input had %d", trial, total, n)
		}
		if int64(len(rec.runs)) != stats.Runs {
			t.Fatalf("trial %d: recorded %d runs, stats say %d", trial, len(rec.runs), stats.Runs)
		}
		checkEqual(t, keys, got, fmt.Sprintf("trial %d", trial))
	}
}

// brokenSorter leaves one run unsorted on purpose.
type brokenSorter struct{ calls int }

func (b *brokenSorter) MaxRun() int { return 64 }

func (b *brokenSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	for _, run := range runs {
		b.calls++
		if b.calls == 2 {
			continue // leave the second run as it arrived
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
	}
	return nil
}

// TestRunCheckCatchesBrokenSorter: with the zero Config, an unsorted
// run is rejected with the wrapped typed error instead of feeding the
// merge, and every pool worker has exited.
func TestRunCheckCatchesBrokenSorter(t *testing.T) {
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key(255 - i)
	}
	baseline := runtime.NumGoroutine()
	_, err := Sort(context.Background(), NewSliceReader(keys), NewSliceWriter(), &brokenSorter{}, Config{})
	if !errors.Is(err, ErrRunUnsorted) || err == ErrRunUnsorted {
		t.Fatalf("err = %v, want a wrapped ErrRunUnsorted", err)
	}
	waitGoroutines(t, baseline)
}

// TestSortConfigValidation: bad knobs fail fast with *ConfigError.
func TestSortConfigValidation(t *testing.T) {
	src := func() Reader { return NewSliceReader([]Key{1}) }
	cases := []struct {
		cfg    Config
		sorter RunSorter
	}{
		{Config{RunBatch: -1}, SliceSorter{}},
		{Config{MemoryKeys: -1}, SliceSorter{}},
		{Config{}, cappedSorter{SliceSorter{}, 0}},
	}
	for i, tc := range cases {
		_, err := Sort(context.Background(), src(), NewSliceWriter(), tc.sorter, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("case %d (%+v): err = %v, want *ConfigError", i, tc.cfg, err)
		}
	}
	if _, err := Sort(context.Background(), src(), NewSliceWriter(), nil, Config{}); !errors.Is(err, ErrNilSorter) {
		t.Fatalf("nil sorter: err = %v", err)
	}
}

// TestSortEmptyStream: an immediately-EOF source produces no output
// and no error.
func TestSortEmptyStream(t *testing.T) {
	out := NewSliceWriter()
	stats, err := Sort(context.Background(), FuncReader(func([]Key) (int, error) { return 0, io.EOF }),
		out, SliceSorter{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Keys()) != 0 || stats.Keys != 0 || stats.Runs != 0 {
		t.Fatalf("empty stream produced %d keys, stats %+v", len(out.Keys()), stats)
	}
}

// TestMergeParts: the part-based merge against slices.Sort across
// part counts 1..33 (odd counts leave a part unpaired in the tree),
// with empty parts, duplicate-heavy parts and the extreme keys; parts
// at least 8 long run the vector body on AVX-512 hosts, shorter ones
// its scalar fallback. Spare slots past dst and tmp must stay
// untouched.
func TestMergeParts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := []Key{math.MinInt64, -1, 0, 1, math.MaxInt64}
	const spare = Key(-12345)
	for k := 1; k <= 33; k++ {
		var all []Key
		parts := make([][]Key, k)
		for i := range parts {
			part := make([]Key, rng.Intn(40)) // sometimes empty
			for j := range part {
				part[j] = alphabet[rng.Intn(len(alphabet))]
				if rng.Intn(2) == 0 {
					part[j] = Key(rng.Intn(50))
				}
			}
			slices.Sort(part)
			all = append(all, part...)
			parts[i] = part
		}
		dst := make([]Key, len(all)+1)
		tmp := make([]Key, len(all)+1)
		dst[len(all)], tmp[len(all)] = spare, spare
		Merge(dst[:len(all)], tmp[:len(all)], parts)
		if dst[len(all)] != spare || tmp[len(all)] != spare {
			t.Fatalf("k=%d: merge wrote past its buffers", k)
		}
		checkEqual(t, all, dst[:len(all)], fmt.Sprintf("k=%d", k))
	}
}

package extsort

import (
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"productsort/internal/obs"
)

// contract counts entries into the caller-supplied Reader, RunSorter
// and Writer. inFlight is atomic so an overlap is caught even when the
// race detector is off; calls is deliberately plain, the way a traced
// wrapper keeps its state, so -race flags any two calls that are not
// ordered on one goroutine.
type contract struct {
	inFlight atomic.Int32
	overlaps atomic.Int32
	calls    int
}

func (c *contract) enter() func() {
	if c.inFlight.Add(1) != 1 {
		c.overlaps.Add(1)
	}
	c.calls++
	runtime.Gosched() // widen the window for an overlapping call
	return func() { c.inFlight.Add(-1) }
}

type contractReader struct {
	c *contract
	r Reader
}

func (r contractReader) Read(dst []Key) (int, error) {
	defer r.c.enter()()
	return r.r.Read(dst)
}

type contractSorter struct {
	c *contract
	s RunSorter
}

func (s contractSorter) MaxRun() int { return s.s.MaxRun() }

func (s contractSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	defer s.c.enter()()
	return s.s.SortRuns(ctx, runs)
}

type contractWriter struct {
	c *contract
	w Writer
}

func (w contractWriter) Write(keys []Key) error {
	defer w.c.enter()()
	return w.w.Write(keys)
}

// randomKeys draws n keys over the whole int64 range.
func randomKeys(seed int64, n int) []Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(rng.Uint64())
	}
	return keys
}

// TestSortStreamCallerContract: Read, SortRuns and Write are entered
// one at a time, from Sort's goroutine, while the pool workers pre-merge
// and spill in the background and merge key ranges side by side with
// the writes. Run it under -race at several GOMAXPROCS (make
// extsort-battery does).
func TestSortStreamCallerContract(t *testing.T) {
	keys := randomKeys(31, 200_000)
	c := &contract{}
	out := NewSliceWriter()
	stats, err := Sort(context.Background(),
		contractReader{c, NewSliceReader(keys)},
		contractWriter{c, out},
		contractSorter{c, compiledSorter(t)},
		Config{MemoryKeys: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.overlaps.Load(); n != 0 {
		t.Fatalf("%d calls into the reader, run sorter or writer overlapped another", n)
	}
	if stats.SpilledRuns == 0 || stats.MergePasses < 2 || stats.MergeChunks < 2 {
		t.Fatalf("want spilling, an intermediate pass and a split final merge, got %+v", stats)
	}
	checkEqual(t, keys, out.Keys(), "contract")
}

// TestSortStreamSpillCreateFails: the spill file cannot be created (its
// directory is missing), so the first leaf a pool worker tries to
// spill fails. Sort returns the wrapped error, every worker has exited,
// and dst holds at most a sorted prefix.
func TestSortStreamSpillCreateFails(t *testing.T) {
	keys := randomKeys(37, 300_000)
	baseline := runtime.NumGoroutine()
	out := NewSliceWriter()
	_, err := Sort(context.Background(), NewSliceReader(keys), out, compiledSorter(t),
		Config{MemoryKeys: 1, SpillDir: filepath.Join(t.TempDir(), "missing")})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want a wrapped fs.ErrNotExist", err)
	}
	waitGoroutines(t, baseline)
	got := out.Keys()
	want := oracle(keys)
	if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("dst holds %d keys that are not a prefix of the sorted input", len(got))
	}
}

// failingSorter is a run sorter whose fail-th SortRuns call fails.
type failingSorter struct {
	RunSorter
	fail, calls int
	err         error
}

func (f *failingSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	if f.calls++; f.calls == f.fail {
		return f.err
	}
	return f.RunSorter.SortRuns(ctx, runs)
}

// TestSortStreamSourceOrSorterFails: mid-stream, the source returns an
// error that is not io.EOF after five batches, or the run sorter fails
// on its first to fourth call, while earlier batches are still being
// pre-merged and spilled. Sort returns that error, with every worker
// joined and every batch back from the pool.
func TestSortStreamSourceOrSorterFails(t *testing.T) {
	// Batches of 32 runs of 1024 keys: the third spills.
	keys := randomKeys(53, 300_000)
	cfg := Config{RunBatch: 32, MemoryKeys: 1, SpillDir: t.TempDir()}
	sortWith := func(src Reader, sorter RunSorter) error {
		_, err := Sort(context.Background(), src, NewSliceWriter(), sorter, cfg)
		return err
	}
	baseline := runtime.NumGoroutine()
	errSource := errors.New("source failed")
	in, read := NewSliceReader(keys), 0
	src := FuncReader(func(dst []Key) (int, error) {
		if read >= 5*32*1024 {
			return 0, errSource
		}
		n, err := in.Read(dst)
		read += n
		return n, err
	})
	if err := sortWith(src, SliceSorter{Max: 1024}); !errors.Is(err, errSource) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	waitGoroutines(t, baseline)
	errSorter := errors.New("run sorter failed")
	for call := 1; call <= 4; call++ {
		sorter := &failingSorter{RunSorter: SliceSorter{Max: 1024}, fail: call, err: errSorter}
		if err := sortWith(NewSliceReader(keys), sorter); !errors.Is(err, errSorter) {
			t.Fatalf("run sorter failing on call %d: err = %v, want its error", call, err)
		}
		waitGoroutines(t, baseline)
	}
}

// TestDerivedFanIn: the fan-in is derived from MemoryKeys as the
// largest F with (F+1)·spillBufKeys ≤ MemoryKeys, floored at 16 with
// MemoryKeys raised to fit; the run size is min(1024, MaxRun).
func TestDerivedFanIn(t *testing.T) {
	cases := []struct {
		in              Config
		fanIn, memories int
	}{
		{Config{}, 511, 1 << 21},
		{Config{MemoryKeys: 1 << 22}, 1023, 1 << 22},
		{Config{MemoryKeys: 65*spillBufKeys + 100}, 64, 65*spillBufKeys + 100},
		{Config{MemoryKeys: 1}, 16, 17 * spillBufKeys},
	}
	for _, tc := range cases {
		p, err := tc.in.normalize(SliceSorter{})
		if err != nil {
			t.Fatal(err)
		}
		if p.fanIn != tc.fanIn || p.MemoryKeys != tc.memories || p.runSize != defaultRunSize {
			t.Fatalf("%+v: fan-in %d MemoryKeys %d run size %d, want %d, %d and %d",
				tc.in, p.fanIn, p.MemoryKeys, p.runSize, tc.fanIn, tc.memories, defaultRunSize)
		}
	}
	if p, _ := (Config{}).normalize(SliceSorter{Max: 16}); p.runSize != 16 {
		t.Fatalf("run size %d under a 16-key ceiling", p.runSize)
	}
}

// TestDerivedRunBatch: a zero RunBatch is the largest B with
// (2·GOMAXPROCS+2)·B·RunSize ≤ MemoryKeys/2, floored at 16 — 170 at the
// defaults on 2 CPUs, so 1e7 keys form 58 leaves and merge in one pass
// at fan-in 511 — while wide hosts and tiny budgets keep 16 and an
// explicit RunBatch is kept.
func TestDerivedRunBatch(t *testing.T) {
	cases := []struct {
		procs    int
		in       Config
		maxRun   int
		runBatch int
	}{
		{2, Config{}, 0, 170},
		{1, Config{}, 0, 256},
		{2, Config{MemoryKeys: 1 << 22}, 0, 341},
		{2, Config{}, 64, 2730},
		{64, Config{}, 0, 16},
		{2, Config{MemoryKeys: 1}, 0, 16},
		{2, Config{RunBatch: 5}, 0, 5},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		runtime.GOMAXPROCS(tc.procs)
		p, err := tc.in.normalize(SliceSorter{Max: tc.maxRun})
		if err != nil {
			t.Fatal(err)
		}
		if p.RunBatch != tc.runBatch {
			t.Fatalf("GOMAXPROCS %d, %+v, MaxRun %d: RunBatch %d, want %d", tc.procs, tc.in, tc.maxRun, p.RunBatch, tc.runBatch)
		}
		if tc.in.RunBatch == 0 && p.RunBatch > minDerivedRunBatch &&
			(2*tc.procs+2)*p.RunBatch*p.runSize > p.MemoryKeys/2 {
			t.Fatalf("%+v: RunBatch %d overruns half the budget", tc.in, p.RunBatch)
		}
	}
}

// TestMergeTelescopes: with a few more leaves than the fan-in, the
// first pass merges only the len−F+1 leaves that must be merged twice,
// and the final merge has exactly F inputs.
func TestMergeTelescopes(t *testing.T) {
	keys := []Key{9, -4, 7, 7, 0, 3, -8, 5, 1, 2, 6, -1, 4, 8, -3, 0, 2, -6, 5, 11} // 20 one-key leaves
	got, stats := runSort(t, keys, SliceSorter{Max: 1},
		Config{RunBatch: 1, MemoryKeys: 1, SpillDir: t.TempDir()})
	checkEqual(t, keys, got, "telescoped")
	if stats.MergePasses != 2 || stats.MaxFanIn != 16 {
		t.Fatalf("MergePasses %d MaxFanIn %d, want 2 and 16", stats.MergePasses, stats.MaxFanIn)
	}
	if stats.SpilledRuns != 1 || stats.SpilledBytes != 5*keyBytes {
		t.Fatalf("intermediate output: %d segments, %d bytes; want one segment of 5 keys",
			stats.SpilledRuns, stats.SpilledBytes)
	}
}

// TestSortStreamSpillAccounting: spilling runs the spill instruments,
// and the placement-driven accounting repeats exactly run to run even
// though the pool workers finish in any order.
func TestSortStreamSpillAccounting(t *testing.T) {
	keys := randomKeys(41, 150_000)
	var first *Stats
	for rep := 0; rep < 2; rep++ {
		m := obs.NewMetrics()
		got, stats := runSort(t, keys, compiledSorter(t),
			Config{MemoryKeys: 1, SpillDir: t.TempDir(), Metrics: m})
		checkEqual(t, keys, got, "accounting")
		if stats.SpillWriteNs <= 0 || stats.SpillReadNs <= 0 {
			t.Fatalf("spill busy times not recorded: %+v", stats)
		}
		snap := m.Snapshot()
		for _, name := range []string{"extsort.spill.write_ns", "extsort.spill.read_ns"} {
			if snap.Histograms[name].Count == 0 {
				t.Fatalf("%s observed nothing", name)
			}
		}
		if c := snap.Counters["extsort.spill.bytes"]; c != stats.SpilledBytes {
			t.Fatalf("extsort.spill.bytes = %d, Stats says %d", c, stats.SpilledBytes)
		}
		if c := snap.Counters["extsort.merge.passes"]; c != int64(stats.MergePasses) {
			t.Fatalf("extsort.merge.passes = %d, Stats says %d", c, stats.MergePasses)
		}
		if first == nil {
			first = stats
			continue
		}
		if stats.Runs != first.Runs || stats.SpilledRuns != first.SpilledRuns ||
			stats.SpilledBytes != first.SpilledBytes || stats.MergePasses != first.MergePasses ||
			stats.MaxFanIn != first.MaxFanIn {
			t.Fatalf("accounting moved between identical runs:\n%+v\n%+v", first, stats)
		}
	}
}

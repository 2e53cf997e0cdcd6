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
	"time"

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
// one at a time, from Sort's goroutine, while pre-merge workers spill
// in the background and the final merge overlaps the writes. Run it
// under -race (make extsort-battery does).
func TestSortStreamCallerContract(t *testing.T) {
	keys := randomKeys(31, 200_000)
	c := &contract{}
	out := NewSliceWriter()
	stats, err := Sort(context.Background(),
		contractReader{c, NewSliceReader(keys)},
		contractWriter{c, out},
		contractSorter{c, compiledSorter(t)},
		Config{RunSize: 16, MemoryKeys: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.overlaps.Load(); n != 0 {
		t.Fatalf("%d calls into the reader, run sorter or writer overlapped another", n)
	}
	if stats.SpilledRuns == 0 || stats.MergePasses < 2 {
		t.Fatalf("want spilling and an intermediate pass, got %+v", stats)
	}
	checkEqual(t, keys, out.Keys(), "contract")
}

// TestSortStreamSpillCreateFails: the spill file cannot be created (its
// directory is missing), so the first leaf a pre-merge worker tries to
// spill fails. Sort returns the wrapped error, every worker has exited,
// and dst holds at most a sorted prefix.
func TestSortStreamSpillCreateFails(t *testing.T) {
	keys := randomKeys(37, 300_000)
	baseline := runtime.NumGoroutine()
	out := NewSliceWriter()
	_, err := Sort(context.Background(), NewSliceReader(keys), out, compiledSorter(t),
		Config{RunSize: 16, MemoryKeys: 1, SpillDir: filepath.Join(t.TempDir(), "missing")})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want a wrapped fs.ErrNotExist", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", g, baseline)
	}
	got := out.Keys()
	want := oracle(keys)
	if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("dst holds %d keys that are not a prefix of the sorted input", len(got))
	}
}

// TestDerivedFanIn: a zero FanIn is derived from MemoryKeys as the
// largest F with (F+1)·spillBufKeys ≤ MemoryKeys, floored at 16; an
// explicit FanIn is kept and MemoryKeys raised to fit it.
func TestDerivedFanIn(t *testing.T) {
	cases := []struct {
		in              Config
		fanIn, memories int
	}{
		{Config{}, 511, 1 << 21},
		{Config{MemoryKeys: 1 << 22}, 1023, 1 << 22},
		{Config{MemoryKeys: 1}, 16, 17 * spillBufKeys},
		{Config{FanIn: 4}, 4, 1 << 21},
		{Config{FanIn: 1000}, 1000, 1001 * spillBufKeys},
	}
	for _, tc := range cases {
		cfg, err := tc.in.normalize(SliceSorter{})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.FanIn != tc.fanIn || cfg.MemoryKeys != tc.memories {
			t.Fatalf("%+v: FanIn %d MemoryKeys %d, want %d and %d",
				tc.in, cfg.FanIn, cfg.MemoryKeys, tc.fanIn, tc.memories)
		}
	}
}

// TestMergeTelescopes: with a few more leaves than the fan-in, the
// first pass merges only the len−F+1 leaves that must be merged twice,
// and the final merge has exactly F inputs.
func TestMergeTelescopes(t *testing.T) {
	keys := []Key{9, -4, 7, 7, 0, 3, -8, 5, 1, 2} // 10 one-key leaves
	got, stats := runSort(t, keys, SliceSorter{},
		Config{RunSize: 1, RunBatch: 1, FanIn: 8, SpillDir: t.TempDir()})
	checkEqual(t, keys, got, "telescoped")
	if stats.MergePasses != 2 || stats.MaxFanIn != 8 {
		t.Fatalf("MergePasses %d MaxFanIn %d, want 2 and 8", stats.MergePasses, stats.MaxFanIn)
	}
	if stats.SpilledRuns != 1 || stats.SpilledBytes != 3*keyBytes {
		t.Fatalf("intermediate output: %d segments, %d bytes; want one segment of 3 keys",
			stats.SpilledRuns, stats.SpilledBytes)
	}
}

// TestSortStreamSpillAccounting: spilling runs the spill instruments,
// and the placement-driven accounting repeats exactly run to run even
// though the pre-merge workers finish in any order.
func TestSortStreamSpillAccounting(t *testing.T) {
	keys := randomKeys(41, 150_000)
	var first *Stats
	for rep := 0; rep < 2; rep++ {
		m := obs.NewMetrics()
		got, stats := runSort(t, keys, compiledSorter(t),
			Config{RunSize: 16, MemoryKeys: 1, SpillDir: t.TempDir(), Metrics: m})
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

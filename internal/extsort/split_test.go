package extsort

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// splitShapes are the leaf sets the split merge could plausibly
// mishandle, each with the chunk size to cut them at.
func splitShapes() []struct {
	name      string
	leaves    [][]Key
	chunkKeys int
} {
	rng := rand.New(rand.NewSource(11))
	draw := func(n int, alphabet ...Key) []Key {
		keys := make([]Key, n)
		for i := range keys {
			if alphabet == nil {
				keys[i] = Key(rng.Uint64())
			} else {
				keys[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return keys
	}
	return []struct {
		name      string
		leaves    [][]Key
		chunkKeys int
	}{
		{"all-equal", [][]Key{draw(3000, 7), draw(2500, 7), draw(4100, 7), draw(700, 7)}, 1000},
		{"only-extremes", [][]Key{draw(5000, math.MinInt64, math.MaxInt64), draw(3333, math.MinInt64, math.MaxInt64), draw(1, math.MaxInt64)}, 900},
		{"one-leaf", [][]Key{draw(10_000)}, 1024},
		{"uneven-lengths", [][]Key{draw(1), draw(7), draw(513), draw(20_000), draw(100), draw(512)}, 2048},
		{"chunks-exceed-distinct", [][]Key{draw(4000, -1, 0, 1), draw(4000, -1, 0, 1), draw(1500, 0)}, 512},
		{"finer-than-fences", [][]Key{draw(3000, 5, 6), draw(2000)}, 100},
		{"random", [][]Key{draw(9000), draw(8000), draw(7000), draw(600), draw(6000)}, 4096},
	}
}

// placeLeaves sorts each leaf and stores it the way the pre-merge does:
// in memory while the budget allows, spilled after that, with its
// fences recorded.
func placeLeaves(t *testing.T, leaves [][]Key, budget int) *runStore {
	t.Helper()
	st := newRunStore(t.TempDir(), budget, nil)
	t.Cleanup(st.close)
	raw := make([]byte, spillBufKeys*keyBytes)
	for _, l := range leaves {
		keys := slices.Clone(l)
		slices.Sort(keys)
		h := st.place(len(keys))
		recordFences(h.fences, keys, 0)
		if h.mem != nil {
			copy(h.mem, keys)
			continue
		}
		if err := st.writeAt(keys, h.off, raw); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// totalKeys counts the keys of every leaf.
func totalKeys(leaves [][]Key) int {
	n := 0
	for _, l := range leaves {
		n += len(l)
	}
	return n
}

// onPool runs f on a fresh pool and returns its error once every worker
// has been joined, the way Sort does: a task's failure wins over the
// cancellation it causes.
func onPool(ctx context.Context, f func(ctx context.Context, pool *pool) error) error {
	pool := startPool(ctx)
	return pool.stop(f(pool.ctx, pool))
}

// mergeParams merge at fan-in 16, in chunks of 1024 keys per leaf.
var mergeParams = params{Config: Config{RunBatch: 1}, runSize: 1024, fanIn: 16}

// TestSplitMergeEdgeCases: for every shape, concatenating the chunk
// merges equals slices.Sort of all the keys, the cuts never move
// backwards, and every chunk holds within leaves·fenceStride keys of
// its target and at most the plan's maxChunk.
func TestSplitMergeEdgeCases(t *testing.T) {
	for _, tc := range splitShapes() {
		t.Run(tc.name, func(t *testing.T) {
			st := placeLeaves(t, tc.leaves, totalKeys(tc.leaves)/2)
			var all []Key
			for _, l := range tc.leaves {
				all = append(all, l...)
			}
			plan := newSplitPlan(st, st.runs, tc.chunkKeys)
			chunks := plan.chunks()
			if want := (len(all) + tc.chunkKeys - 1) / tc.chunkKeys; chunks != want {
				t.Fatalf("%d chunks, want %d", chunks, want)
			}
			k := len(st.runs)
			prev, at := make([]int, k), make([]int, k)
			var bufs mergeBufs
			for b := 1; b <= chunks; b++ {
				if err := plan.cut(b, at, &bufs); err != nil {
					t.Fatal(err)
				}
				size := 0
				for j := range at {
					if at[j] < prev[j] {
						t.Fatalf("boundary %d cuts leaf %d at %d, before boundary %d's %d", b, j, at[j], b-1, prev[j])
					}
					size += at[j] - prev[j]
				}
				target := min(b*tc.chunkKeys, len(all)) - (b-1)*tc.chunkKeys
				if d := size - target; d >= k*fenceStride || -d >= k*fenceStride {
					t.Fatalf("chunk %d holds %d keys, target %d: off by more than %d leaves·%d", b-1, size, target, k, fenceStride)
				}
				if size > plan.maxChunk {
					t.Fatalf("chunk %d holds %d keys, more than the plan's maxChunk %d", b-1, size, plan.maxChunk)
				}
				prev, at = at, prev
			}
			out := NewSliceWriter()
			err := onPool(context.Background(), func(ctx context.Context, pool *pool) error {
				return mergeChunks(ctx, pool, chunks, plan.maxChunk, plan.load, out.Write)
			})
			if err != nil {
				t.Fatal(err)
			}
			checkEqual(t, all, out.Keys(), tc.name)
		})
	}
}

// TestSortStreamSplitShapes: the same shapes end to end through Sort,
// spilling and split into several chunks.
func TestSortStreamSplitShapes(t *testing.T) {
	for _, tc := range splitShapes() {
		var keys []Key
		for _, l := range tc.leaves {
			keys = append(keys, l...)
		}
		// Fan-in 4, so four final leaves: chunks of one output block.
		got, stats := sortAt(t, keys, compiledSorter(t),
			Config{RunBatch: 16, MemoryKeys: 1, SpillDir: t.TempDir()}, 4)
		checkEqual(t, keys, got, tc.name)
		if want := (len(keys) + outBlockKeys - 1) / outBlockKeys; stats.MergeChunks != want {
			t.Fatalf("%s: MergeChunks %d, want %d", tc.name, stats.MergeChunks, want)
		}
	}
}

// TestChunkMergeWorkerFails: loading one chunk fails, as a spill read
// of one of its ranges would. The failure is the merge's error, every
// worker is joined, and dst holds a sorted prefix that ends before the
// failed chunk.
func TestChunkMergeWorkerFails(t *testing.T) {
	const chunks, per, failing = 16, 3 * outBlockKeys, 9
	errRead := errors.New("injected read failure")
	baseline := runtime.NumGoroutine()
	load := func(c int, _ *mergeBufs) ([][]Key, int, error) {
		if c == failing {
			return nil, 0, errRead
		}
		// Chunk c is the keys c·per .. (c+1)·per−1, dealt to three parts.
		parts := make([][]Key, 3)
		for i := range per {
			parts[i%3] = append(parts[i%3], Key(c*per+i))
		}
		return parts, per, nil
	}
	out := NewSliceWriter()
	err := onPool(context.Background(), func(ctx context.Context, pool *pool) error {
		return mergeChunks(ctx, pool, chunks, per, load, out.Write)
	})
	if !errors.Is(err, errRead) {
		t.Fatalf("err = %v, want the injected read failure", err)
	}
	waitGoroutines(t, baseline)
	got := out.Keys()
	if len(got) > failing*per {
		t.Fatalf("%d keys written, but chunk %d failed before key %d", len(got), failing, failing*per)
	}
	for i, k := range got {
		if k != Key(i) {
			t.Fatalf("dst[%d] = %d: not a prefix of the merge", i, k)
		}
	}
}

// TestFinalMergeSpillReadFails: every spill read of the final merge
// fails. Sort's merge returns the wrapped error with every worker
// joined.
func TestFinalMergeSpillReadFails(t *testing.T) {
	shape := splitShapes()[len(splitShapes())-1]
	st := placeLeaves(t, shape.leaves, totalKeys(shape.leaves)/2)
	if st.file == nil {
		t.Fatal("no leaf spilled")
	}
	st.file.Close() // reads now fail with os.ErrClosed
	baseline := runtime.NumGoroutine()
	stats := &Stats{}
	err := onPool(context.Background(), func(ctx context.Context, pool *pool) error {
		return mergeRuns(ctx, pool, st, NewSliceWriter(), mergeParams, stats, nil)
	})
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("err = %v, want a wrapped os.ErrClosed", err)
	}
	if stats.MergeChunks < 2 {
		t.Fatalf("MergeChunks %d, want a split merge", stats.MergeChunks)
	}
	waitGoroutines(t, baseline)
}

// twentyLeaves are 20 leaves of 6000 random keys: at fan-in 16 one
// intermediate pass merges the first five, in six chunks.
func twentyLeaves() [][]Key {
	leaves := make([][]Key, 20)
	for i := range leaves {
		leaves[i] = randomKeys(int64(60+i), 6000)
	}
	return leaves
}

// TestIntermediatePassSpillReadFails: every spill read of the
// intermediate pass over 20 spilled leaves fails. The pass returns the
// wrapped error before it counts, with every worker joined.
func TestIntermediatePassSpillReadFails(t *testing.T) {
	st := placeLeaves(t, twentyLeaves(), 0)
	st.file.Close() // reads now fail with os.ErrClosed
	baseline := runtime.NumGoroutine()
	stats := &Stats{}
	err := onPool(context.Background(), func(ctx context.Context, pool *pool) error {
		return mergeRuns(ctx, pool, st, NewSliceWriter(), mergeParams, stats, nil)
	})
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("err = %v, want a wrapped os.ErrClosed", err)
	}
	if stats.MergePasses != 0 {
		t.Fatalf("MergePasses %d, want the intermediate pass to fail", stats.MergePasses)
	}
	waitGoroutines(t, baseline)
}

// TestIntermediatePassSpillWriteFails: the intermediate pass merges 20
// resident leaves, but its segment cannot be written (the spill file
// is open read-only). The pass returns the write's error with every
// worker joined.
func TestIntermediatePassSpillWriteFails(t *testing.T) {
	leaves := twentyLeaves()
	st := placeLeaves(t, leaves, totalKeys(leaves))
	path := filepath.Join(t.TempDir(), "read-only")
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st.file = f // closed by placeLeaves' cleanup
	baseline := runtime.NumGoroutine()
	stats := &Stats{}
	err = onPool(context.Background(), func(ctx context.Context, pool *pool) error {
		return mergeRuns(ctx, pool, st, NewSliceWriter(), mergeParams, stats, nil)
	})
	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Op != "write" {
		t.Fatalf("err = %v, want the spill file's write error", err)
	}
	if stats.MergePasses != 0 || st.spilledRuns.Load() != 0 {
		t.Fatalf("MergePasses %d, %d segments spilled: want the intermediate pass to fail",
			stats.MergePasses, st.spilledRuns.Load())
	}
	waitGoroutines(t, baseline)
}

// TestIntermediatePassCancelled: the context is cancelled while the
// intermediate pass waits for its first chunk, with its window queued
// behind tasks that hold every worker. The pass returns
// context.Canceled, and the queued chunks drain without merging once
// the workers are released.
func TestIntermediatePassCancelled(t *testing.T) {
	st := placeLeaves(t, twentyLeaves(), 0)
	written := st.writeNs.Load()
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := startPool(ctx)
	var held sync.WaitGroup
	held.Add(pool.workers)
	hold := make(chan struct{})
	for range pool.workers {
		pool.tasks <- func(*mergeBufs) {
			held.Done()
			<-hold
		}
	}
	held.Wait()
	chunks := newSplitPlan(st, st.runs[:5], mergeParams.chunkKeys(5)).chunks()
	window := min(chunks, pool.workers+1)
	stats := &Stats{}
	done := make(chan error, 1)
	go func() {
		done <- mergeRuns(pool.ctx, pool, st, NewSliceWriter(), mergeParams, stats, nil)
	}()
	// Every worker holds, so the queue fills with the window and stays.
	for len(pool.tasks) < window {
		runtime.Gosched()
	}
	cancel()
	close(hold)
	err := pool.stop(<-done)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.MergePasses != 0 || st.writeNs.Load() != written {
		t.Fatalf("MergePasses %d, the pass wrote to the spill file: want it stopped before its first chunk",
			stats.MergePasses)
	}
	waitGoroutines(t, baseline)
}

// TestBound: bound against a linear count, ties on both sides.
func TestBound(t *testing.T) {
	keys := []Key{math.MinInt64, -3, -3, 0, 0, 0, 5, math.MaxInt64, math.MaxInt64}
	for _, k := range append(slices.Clone(keys), -4, 1, 6) {
		for _, tiesBefore := range []bool{false, true} {
			want := 0
			for _, x := range keys {
				if x < k || tiesBefore && x == k {
					want++
				}
			}
			if got := bound(keys, k, tiesBefore); got != want {
				t.Fatalf("bound(%d, tiesBefore=%v) = %d, want %d", k, tiesBefore, got, want)
			}
		}
	}
	if got := bound(nil, 0, true); got != 0 {
		t.Fatalf("bound over no keys = %d", got)
	}
}

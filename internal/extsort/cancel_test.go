package extsort

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSortStreamCancelMidStream: cancelling mid-sort returns the
// context's error promptly, leaks no goroutine, leaves no spill file
// behind, and leaves the sorter reusable (pooled buffers intact). Run
// under -race in CI's extsort job.
func TestSortStreamCancelMidStream(t *testing.T) {
	sorter := compiledSorter(t)
	spillDir := t.TempDir()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	rng := rand.New(rand.NewSource(5))
	var produced int
	src := FuncReader(func(dst []Key) (int, error) {
		// Cancel mid-stream, then keep producing: the tier must stop on
		// the context, not on EOF.
		if produced > 200_000 {
			cancel()
		}
		for i := range dst {
			dst[i] = Key(rng.Int63())
		}
		produced += len(dst)
		return len(dst), nil
	})
	cfg := Config{MemoryKeys: 1, SpillDir: spillDir}
	done := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, src, NewSliceWriter(), sorter, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Sort did not honor cancellation")
	}

	// No goroutine may outlive the cancelled sort.
	waitGoroutines(t, baseline)

	// Spill files are unlinked at creation, so the spill dir must be
	// empty the moment Sort returns — cancelled or not.
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("spill file left behind: %s", filepath.Join(spillDir, e.Name()))
	}

	// The sorter (and its pooled column slabs) must survive a
	// cancelled run: a fresh sort through the same sorter still works.
	keys := make([]Key, 5000)
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	got, _ := runSort(t, keys, sorter, cfg)
	checkEqual(t, keys, got, "post-cancel reuse")
}

// TestSortStreamCancelBeforeStart: an already-cancelled context fails
// before any key is read.
func TestSortStreamCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reads := 0
	src := FuncReader(func(dst []Key) (int, error) { reads++; return len(dst), nil })
	_, err := Sort(ctx, src, NewSliceWriter(), SliceSorter{}, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reads != 0 {
		t.Fatalf("source read %d times under a dead context", reads)
	}
}

// waitGoroutines fails the test unless the goroutine count settles back
// to (at most) baseline. Workers join before Sort returns, so it
// polls only briefly, to let exiting goroutines park.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", g, baseline)
	}
}

// writerFunc adapts a function to Writer.
type writerFunc func(keys []Key) error

func (f writerFunc) Write(keys []Key) error { return f(keys) }

// TestSortStreamCancelInFirstWrite: the sink cancels the context inside
// the first Write of a spilling, split final merge. Sort returns
// context.Canceled after that one Write, every pool worker has exited,
// and dst holds a sorted prefix.
func TestSortStreamCancelInFirstWrite(t *testing.T) {
	keys := randomKeys(43, 300_000)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := NewSliceWriter()
	writes := 0
	dst := writerFunc(func(b []Key) error {
		writes++
		cancel()
		return out.Write(b)
	})
	stats, err := Sort(ctx, NewSliceReader(keys), dst, compiledSorter(t),
		Config{MemoryKeys: 1, SpillDir: t.TempDir()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.SpilledRuns == 0 || stats.MergeChunks < 2 {
		t.Fatalf("want a spilling sort with a split final merge, got %+v", stats)
	}
	if writes != 1 {
		t.Fatalf("%d Writes after the cancelling one, want none", writes-1)
	}
	waitGoroutines(t, baseline)
	got := out.Keys()
	want := oracle(keys)
	if len(got) == 0 || !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("dst holds %d keys that are not a sorted prefix of the input", len(got))
	}
}

// TestSortStreamSinkFails: the sink fails on its third Write while the
// pool workers are still merging chunks. Sort returns the sink's error,
// not the cancellation that stops the workers, and joins every worker.
func TestSortStreamSinkFails(t *testing.T) {
	errSink := errors.New("sink full")
	keys := randomKeys(47, 300_000)
	baseline := runtime.NumGoroutine()
	writes := 0
	dst := writerFunc(func([]Key) error {
		if writes++; writes == 3 {
			return errSink
		}
		return nil
	})
	stats, err := Sort(context.Background(), NewSliceReader(keys), dst, SliceSorter{Max: 64},
		Config{RunBatch: 64, SpillDir: t.TempDir()})
	if !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if stats.MergeChunks < 2 {
		t.Fatalf("MergeChunks %d, want a split merge", stats.MergeChunks)
	}
	waitGoroutines(t, baseline)
}

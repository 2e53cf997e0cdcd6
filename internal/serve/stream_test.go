package serve

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"productsort/internal/extsort"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
)

// streamServer builds a small server whose largest network (64 nodes)
// is far below the streamed input, with a deliberately shallow queue so
// the run lane's backoff path gets exercised.
func streamServer(t *testing.T, queueDepth int) *Server {
	t.Helper()
	nets := []*product.Network{
		product.MustNew(graph.K2(), 4), // 16
		product.MustNew(graph.K2(), 6), // 64
	}
	pl, err := productPlanner(nets, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Planner:    pl,
		QueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	return s
}

// TestSubmitStreamSortsBeyondMaxKeys: a stream two hundred times the
// largest serving network sorts correctly — the lane the point API
// rejects with ErrTooLarge.
func TestSubmitStreamSortsBeyondMaxKeys(t *testing.T) {
	s := streamServer(t, 1024)
	rng := rand.New(rand.NewSource(31))
	keys := make([]Key, 200*s.MaxKeys()+17)
	for i := range keys {
		keys[i] = Key(rng.Int63() - 1<<62)
	}
	out := extsort.NewSliceWriter()
	stats, err := s.SubmitStream(context.Background(), extsort.NewSliceReader(keys), out, extsort.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RunSize > s.MaxKeys() {
		t.Fatalf("run size %d exceeds MaxKeys %d", stats.RunSize, s.MaxKeys())
	}
	if stats.Keys != int64(len(keys)) {
		t.Fatalf("stats.Keys = %d, want %d", stats.Keys, len(keys))
	}
	got := out.Keys()
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestSubmitStreamBacksOffInsteadOfShedding: with a queue depth of one
// and many runs in flight, ErrQueueFull must stay inside the lane —
// absorbed by resubmission — and never surface to the stream caller.
func TestSubmitStreamBacksOffInsteadOfShedding(t *testing.T) {
	s := streamServer(t, 1)
	// Park every flush until the lane has met a full queue once: with
	// the flushes held, the depth-1 bucket must refuse one of the 8
	// concurrent runs however fast the kernel or the scheduler is.
	gate := make(chan struct{})
	s.flushGate = gate
	retries := s.met.Counter("serve.stream.queue_retries")
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for retries.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		close(gate)
	}()
	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 40*s.MaxKeys())
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	out := extsort.NewSliceWriter()
	stats, err := s.SubmitStream(context.Background(), extsort.NewSliceReader(keys), out, extsort.Config{
		RunBatch: 8, // 8 concurrent runs against a depth-1 bucket: guaranteed contention
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(out.Keys())); got != stats.Keys || got != int64(len(keys)) {
		t.Fatalf("output %d keys, stats %d, want %d", got, stats.Keys, len(keys))
	}
	if !sort.SliceIsSorted(out.Keys(), func(i, j int) bool { return out.Keys()[i] < out.Keys()[j] }) {
		t.Fatal("stream output unsorted")
	}
	if s.met.Counter("serve.stream.queue_retries").Value() == 0 {
		t.Fatal("depth-1 queue produced no retries: the backoff path was not exercised")
	}
	// Every run must have completed despite the contention: queue-full
	// was absorbed by resubmission, never surfaced as a lost run.
	if stats.Runs != int64(len(keys))/int64(stats.RunSize) {
		t.Fatalf("runs %d, want %d", stats.Runs, len(keys)/stats.RunSize)
	}
}

// TestSubmitStreamWindow: with the zero extsort.Config the lane keeps
// exactly streamWindow (16) runs in flight — not the kernel batch
// extsort derives from the memory budget, which would be thousands of
// concurrent requests at this run size. A held worker parks the first
// flush, so the lane's first SortRuns call blocks with its whole
// window submitted, and the stream has been read exactly that far:
// runs are read before any of them is submitted.
func TestSubmitStreamWindow(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	held := holdWorker(t, s, 4)
	runSize := s.MaxKeys()
	keys := randKeys(40*runSize, 3)
	src := extsort.NewSliceReader(keys)
	var read atomic.Int64
	counting := extsort.FuncReader(func(dst []Key) (int, error) {
		n, err := src.Read(dst)
		read.Add(int64(n))
		return n, err
	})
	out := extsort.NewSliceWriter()
	done := make(chan error, 1)
	go func() {
		_, err := s.SubmitStream(context.Background(), counting, out, extsort.Config{})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.submitted.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the stream submitted no run")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if n := read.Load(); n != int64(streamWindow*runSize) {
		t.Errorf("first window read %d keys, want %d runs of %d", n, streamWindow, runSize)
	}
	close(gate)
	<-held
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.Keys()
	if len(got) != len(keys) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("stream output: %d keys of %d, or unsorted", len(got), len(keys))
	}
}

// TestSubmitStreamClosedServer: a sealed server fails the stream with
// the typed closed error rather than hanging the retry loop.
func TestSubmitStreamClosedServer(t *testing.T) {
	s := streamServer(t, 16)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 100)
	_, err := s.SubmitStream(context.Background(),
		extsort.NewSliceReader(keys), extsort.NewSliceWriter(), extsort.Config{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestSubmitStreamMetrics: the extsort.* instruments go to the server's
// registry by default and to cfg.Metrics when the caller sets one.
func TestSubmitStreamMetrics(t *testing.T) {
	s := streamServer(t, 1024)
	keys := randKeys(10*s.MaxKeys()+3, 5)
	sortInto := func(cfg extsort.Config) {
		t.Helper()
		if _, err := s.SubmitStream(context.Background(), extsort.NewSliceReader(keys), extsort.NewSliceWriter(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	sortInto(extsort.Config{})
	if got := s.Metrics().Counter("extsort.keys").Value(); got != int64(len(keys)) {
		t.Fatalf("server extsort.keys = %d, want %d", got, len(keys))
	}
	own := obs.NewMetrics()
	sortInto(extsort.Config{Metrics: own})
	if got := own.Counter("extsort.keys").Value(); got != int64(len(keys)) {
		t.Fatalf("caller extsort.keys = %d, want %d", got, len(keys))
	}
	if got := s.Metrics().Counter("extsort.keys").Value(); got != int64(len(keys)) {
		t.Fatalf("server extsort.keys = %d after a stream with its own registry, want %d", got, len(keys))
	}
}

package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"productsort/internal/graph"
	"productsort/internal/product"
)

// hypercubePlanner covers 2^1 .. 2^maxR keys with hypercube candidates.
func hypercubePlanner(t testing.TB, maxR int) *Planner {
	t.Helper()
	nets := make([]*product.Network, 0, maxR)
	for r := 1; r <= maxR; r++ {
		nets = append(nets, product.MustNew(graph.K2(), r))
	}
	pl, err := productPlanner(nets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Planner == nil {
		cfg.Planner = hypercubePlanner(t, 5)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("cleanup close: %v", err)
		}
	})
	return s
}

// gatedServer builds a one-worker server whose flushes park at the
// returned gate between binding their batch and sorting it.
func gatedServer(t *testing.T, cfg Config) (*Server, chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	s := testServer(t, cfg)
	gate := make(chan struct{})
	s.flushGate = gate
	return s, gate
}

// waitSem waits until want worker slots of s are taken.
func waitSem(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.sem) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker slots taken, want %d", len(s.sem), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdWorker submits n keys to a gated server and returns the reply
// channel once that request's flush holds the only worker slot, parked
// at the gate. Until the gate opens, requests to every other bucket
// stay queued. Every earlier request must have been replied.
func holdWorker(t *testing.T, s *Server, n int) <-chan Reply {
	t.Helper()
	waitSem(t, s, 0) // a replied flush may still be returning its slot
	ch, err := s.Submit(context.Background(), randKeys(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitSem(t, s, 1)
	return ch
}

// closeHeld runs Close while a held worker keeps requests pending: once
// Close has sealed admission it opens the gate, then waits for the
// drain.
func closeHeld(t *testing.T, s *Server, gate chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	for !s.closed.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

func randKeys(n int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(rng.Intn(4*n+1) - n)
	}
	return keys
}

func checkSorted(t *testing.T, got, in []Key) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("reply has %d keys, submitted %d", len(got), len(in))
	}
	want := append([]Key(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func awaitReply(t *testing.T, ch <-chan Reply) Reply {
	t.Helper()
	select {
	case rep := <-ch:
		return rep
	case <-time.After(10 * time.Second):
		t.Fatal("no reply within 10s")
		panic("unreachable")
	}
}

// TestServerSortsAcrossSizes: the synchronous helper sorts every
// admissible size correctly, padding and slicing transparently.
func TestServerSortsAcrossSizes(t *testing.T) {
	s := testServer(t, Config{})
	for n := 1; n <= 32; n++ {
		in := randKeys(n, int64(n))
		got, err := s.SortKeys(context.Background(), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSorted(t, got, in)
	}
}

// TestServerSharedBatch: requests of different sizes that map to the
// same plan and queue while the worker is busy ride one flush, and
// every reply reports the shared batch.
func TestServerSharedBatch(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 8) // K2^3, a bucket of its own
	inputs := [][]Key{randKeys(3, 1), randKeys(4, 2), randKeys(3, 3), randKeys(4, 4)}
	chans := make([]<-chan Reply, len(inputs))
	for i, in := range inputs {
		ch, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	close(gate)
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, ch := range chans {
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatalf("request %d: %v", i, rep.Err)
		}
		checkSorted(t, rep.Keys, inputs[i])
		if rep.BatchSize != 4 {
			t.Fatalf("request %d: BatchSize = %d, want 4", i, rep.BatchSize)
		}
		if rep.Network != "K2^2" {
			t.Fatalf("request %d: network %q, want K2^2", i, rep.Network)
		}
		if rep.Rounds <= 0 || rep.Wait <= 0 {
			t.Fatalf("request %d: Rounds=%d Wait=%v", i, rep.Rounds, rep.Wait)
		}
	}
}

// TestServerBatchesWhileWorkersBusy: batching comes from backpressure.
// Requests that arrive while the only worker is busy all ride its next
// flush, however far apart they arrive.
func TestServerBatchesWhileWorkersBusy(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 8) // K2^3, a bucket of its own
	inputs := make([][]Key, 4)
	chans := make([]<-chan Reply, len(inputs))
	for i := range inputs {
		if i > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		inputs[i] = randKeys(3+i%2, int64(i))
		ch, err := s.Submit(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	close(gate)
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, ch := range chans {
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatalf("request %d: %v", i, rep.Err)
		}
		checkSorted(t, rep.Keys, inputs[i])
		if rep.BatchSize != 4 {
			t.Fatalf("request %d: BatchSize = %d, want 4", i, rep.BatchSize)
		}
	}
	if got := s.met.Snapshot().Counters["serve.bucket.K2^2.flushes"]; got != 1 {
		t.Fatalf("K2^2 flushes = %d, want 1", got)
	}
}

// TestServerIdleFlushesAtOnce: an idle server sorts a request as soon
// as it arrives; nothing holds it back to wait for batchmates.
func TestServerIdleFlushesAtOnce(t *testing.T) {
	s := testServer(t, Config{})
	minWait := time.Duration(math.MaxInt64)
	for i := 0; i < 20; i++ {
		in := randKeys(4, int64(i))
		ch, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		checkSorted(t, rep.Keys, in)
		minWait = min(minWait, rep.Wait)
	}
	if minWait >= time.Millisecond {
		t.Fatalf("fastest of 20 idle requests waited %v, want under 1ms", minWait)
	}
}

// TestServerQueueFullSheds: with the worker pool held, admitted
// requests pin their occupancy slots until replied, and the bounded
// queue sheds exactly past QueueDepth with the typed error.
func TestServerQueueFullSheds(t *testing.T) {
	s, gate := gatedServer(t, Config{QueueDepth: 2})
	chA := holdWorker(t, s, 4)
	chB, err := s.Submit(context.Background(), randKeys(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), randKeys(4, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	// Release A's flush: its reply frees an occupancy slot and
	// admission resumes.
	gate <- struct{}{}
	if rep := awaitReply(t, chA); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	chD, err := s.Submit(context.Background(), randKeys(4, 4))
	if err != nil {
		t.Fatalf("post-release submit: %v", err)
	}
	close(gate)
	for _, ch := range []<-chan Reply{chB, chD} {
		if rep := awaitReply(t, ch); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	if got := s.met.Snapshot().Counters["serve.shed"]; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestServerDeadlineWhileEnqueued: a context that expires while the
// request waits for a worker is honored at binding time — the request
// is dropped from the flush with its context error.
func TestServerDeadlineWhileEnqueued(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ch, err := s.Submit(ctx, randKeys(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	close(gate)
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	rep := awaitReply(t, ch)
	if !errors.Is(rep.Err, context.DeadlineExceeded) {
		t.Fatalf("reply error = %v, want DeadlineExceeded", rep.Err)
	}
	if rep.Keys != nil {
		t.Fatal("expired request still carried keys")
	}
}

// TestServerMidFlushCancel: once a request is bound into a flush,
// cancelling it neither aborts the sort nor poisons batchmates — both
// replies arrive sorted.
func TestServerMidFlushCancel(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 8)

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	inA, inB := randKeys(3, 1), randKeys(4, 2)
	chA, err := s.Submit(ctxA, inA)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := s.Submit(context.Background(), inB)
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // releases the blocker's flush
	gate <- struct{}{} // returns once the next flush has bound both requests
	cancelA()          // strictly mid-flush
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	repA, repB := awaitReply(t, chA), awaitReply(t, chB)
	if repA.Err != nil {
		t.Fatalf("bound request dropped by cancellation: %v", repA.Err)
	}
	checkSorted(t, repA.Keys, inA)
	if repB.Err != nil {
		t.Fatal(repB.Err)
	}
	checkSorted(t, repB.Keys, inB)
	if repA.BatchSize != 2 || repB.BatchSize != 2 {
		t.Fatalf("batch sizes %d/%d, want 2/2", repA.BatchSize, repB.BatchSize)
	}
}

// TestServerEnqueuedCancelSparesBatchmates: a request cancelled before
// binding is dropped with its context error, while its batchmate sorts
// normally in a now-smaller flush.
func TestServerEnqueuedCancelSparesBatchmates(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 8)
	ctxA, cancelA := context.WithCancel(context.Background())
	chA, err := s.Submit(ctxA, randKeys(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	cancelA() // cancelled while enqueued: the flush has not started
	inB := randKeys(4, 2)
	chB, err := s.Submit(context.Background(), inB) // queues behind A
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	repA := awaitReply(t, chA)
	if !errors.Is(repA.Err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want Canceled", repA.Err)
	}
	repB := awaitReply(t, chB)
	if repB.Err != nil {
		t.Fatal(repB.Err)
	}
	checkSorted(t, repB.Keys, inB)
	if repB.BatchSize != 1 {
		t.Fatalf("batchmate BatchSize = %d, want 1", repB.BatchSize)
	}
}

// TestServerGracefulDrain: Close seals admission while requests are
// still queued, every admitted request still gets its sorted reply
// (across multiple buckets), and the server is idempotently closed
// afterwards.
func TestServerGracefulDrain(t *testing.T) {
	s, gate := gatedServer(t, Config{})
	blocker := holdWorker(t, s, 16) // K2^4, a bucket of its own
	sizes := []int{3, 4, 3, 7, 8}   // two buckets: hypercube^2 and ^3
	inputs := make([][]Key, len(sizes))
	chans := make([]<-chan Reply, len(sizes))
	for i, n := range sizes {
		inputs[i] = randKeys(n, int64(i))
		ch, err := s.Submit(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	closeHeld(t, s, gate)
	if rep := awaitReply(t, blocker); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, ch := range chans {
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatalf("drained request %d: %v", i, rep.Err)
		}
		checkSorted(t, rep.Keys, inputs[i])
	}
	if _, err := s.Submit(context.Background(), randKeys(4, 9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestServerSubmitValidation: the fast-fail admission errors.
func TestServerSubmitValidation(t *testing.T) {
	s := testServer(t, Config{})
	if _, err := s.Submit(context.Background(), nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty = %v, want ErrEmpty", err)
	}
	if _, err := s.Submit(context.Background(), randKeys(33, 1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize = %v, want ErrTooLarge", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, randKeys(4, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled = %v, want Canceled", err)
	}
}

// TestServerSubmitCopiesKeys: mutating the caller's slice after Submit
// cannot corrupt the in-flight request.
func TestServerSubmitCopiesKeys(t *testing.T) {
	s := testServer(t, Config{})
	in := []Key{5, 1, 4, 2}
	ch, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	in[0], in[1], in[2], in[3] = 9, 9, 9, 9
	rep := awaitReply(t, ch)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	checkSorted(t, rep.Keys, []Key{5, 1, 4, 2})
}

// TestServerMetrics: the per-bucket instruments land in the registry
// under stable names and settle at zero occupancy after the drain, and
// every bucket that answered a request counts at least one flush.
func TestServerMetrics(t *testing.T) {
	s := testServer(t, Config{})
	for i := 0; i < 8; i++ {
		if _, err := s.SortKeys(context.Background(), randKeys(4, int64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SortKeys(context.Background(), randKeys(7, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.submitted"]; got != 16 {
		t.Fatalf("serve.submitted = %d, want 16", got)
	}
	lat, ok := snap.Histograms["serve.bucket.K2^2.latency_ns"]
	if !ok || lat.Count != 8 {
		names := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			names = append(names, name)
		}
		t.Fatalf("latency histogram missing or short: %+v (have %v)", lat, names)
	}
	for _, net := range []string{"K2^2", "K2^3"} {
		if fl := snap.Counters["serve.bucket."+net+".flushes"]; fl < 1 {
			t.Fatalf("%s flushes = %d, want >= 1", net, fl)
		}
		if occ := snap.Gauges["serve.bucket."+net+".occupancy"]; occ != 0 {
			t.Fatalf("%s occupancy after drain = %d, want 0", net, occ)
		}
	}
}

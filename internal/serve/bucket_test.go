package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"productsort/internal/core"
	"productsort/internal/emit"
	"productsort/internal/emit/periodic"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// defaultPlanner builds the planner the root NewServer builds with its
// default configuration: the DefaultServingNetworks(4096) candidates
// (hypercubes K2^1..K2^12 plus the side-4 grid and torus of dimension
// 2), optionally joined by the multiway and periodic families.
func defaultPlanner(t *testing.T, families []string) *Planner {
	t.Helper()
	var cands []Candidate
	for r := 1; r <= 12; r++ {
		cands = append(cands, Candidate{Net: product.MustNew(graph.K2(), r)})
	}
	cands = append(cands,
		Candidate{Net: product.MustNew(graph.Path(4), 2)},
		Candidate{Net: product.MustNew(graph.Cycle(4), 2)})
	fam, err := FamilyCandidates(families, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlannerCandidates(append(cands, fam...), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// planRange says that request sizes from first up to the next range's
// first go to the named plan.
type planRange struct {
	first  int
	name   string
	family string
}

// TestServerBuildsReachableBucketsOnly: a server builds a bucket — its
// instruments and its batching loop — only for the plans For can
// return. The default candidate sets offer 14 (product only) and 38
// (with both emitted families) plans, but For reaches 12 of each over
// 1..4096; the size-to-plan map is pinned so pruning can never reroute
// a request.
func TestServerBuildsReachableBucketsOnly(t *testing.T) {
	for _, tc := range []struct {
		families []string
		plans    int
		want     []planRange
	}{
		{nil, 14, []planRange{
			{1, "K2^1", "product"}, {3, "K2^2", "product"}, {5, "K2^3", "product"},
			{9, "cycle4^2", "product"}, {17, "K2^5", "product"}, {33, "K2^6", "product"},
			{65, "K2^7", "product"}, {129, "K2^8", "product"}, {257, "K2^9", "product"},
			{513, "K2^10", "product"}, {1025, "K2^11", "product"}, {2049, "K2^12", "product"},
		}},
		{[]string{emit.FamilyMultiway, emit.FamilyPeriodic}, 38, []planRange{
			{1, "multiway4[2]", "multiway"}, {3, "K2^2", "product"}, {5, "periodic[8]", "periodic"},
			{9, "periodic[16]", "periodic"}, {17, "periodic[32]", "periodic"}, {33, "periodic[64]", "periodic"},
			{65, "periodic[128]", "periodic"}, {129, "periodic[256]", "periodic"}, {257, "periodic[512]", "periodic"},
			{513, "periodic[1024]", "periodic"}, {1025, "periodic[2048]", "periodic"}, {2049, "periodic[4096]", "periodic"},
		}},
	} {
		pl := defaultPlanner(t, tc.families)
		if got := len(pl.Plans()); got != tc.plans {
			t.Fatalf("families %v: %d candidate plans, want %d", tc.families, got, tc.plans)
		}
		var got []planRange
		reachable := map[*Plan]bool{}
		for n := 1; n <= pl.MaxKeys(); n++ {
			p, err := pl.For(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reachable[p] {
				reachable[p] = true
				got = append(got, planRange{n, p.Name(), p.Family})
			}
		}
		if len(got) != len(tc.want) {
			t.Fatalf("families %v: For reaches %d plans %v, want %d", tc.families, len(got), got, len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("families %v: range %d = %+v, want %+v", tc.families, i, got[i], tc.want[i])
			}
		}

		met := obs.NewMetrics()
		s, err := New(Config{Planner: pl, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		loops := 0
		for i, b := range s.buckets {
			if b == nil {
				continue
			}
			loops++
			if b.plan != pl.Plans()[i] || !reachable[b.plan] {
				t.Fatalf("families %v: bucket %d serves unreachable plan %s", tc.families, i, b.plan.Name())
			}
		}
		instruments := 0
		for name := range met.Snapshot().Counters {
			if strings.HasPrefix(name, "serve.bucket.") && strings.HasSuffix(name, ".flushes") {
				instruments++
			}
		}
		if loops != len(reachable) || instruments != len(reachable) {
			t.Fatalf("families %v: %d bucket loops and %d bucket instrument sets, want %d each",
				tc.families, loops, instruments, len(reachable))
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// emittedPlanner builds a planner over one emitted candidate whose
// Emit is the caller's, plus product hypercubes K2^1 and K2^4 around
// it. The candidate has 8 nodes and claims K2^1's round count, so For
// sends every size in 3..8 to it and the other sizes to the hypercubes.
func emittedPlanner(t *testing.T, emitFn func() (*schedule.Program, error)) *Planner {
	t.Helper()
	k1 := product.MustNew(graph.K2(), 1)
	rounds := core.PredictedRounds(k1, sort2d.Auto{})
	pl, err := NewPlannerCandidates([]Candidate{
		{Net: k1},
		{Net: product.MustNew(graph.K2(), 4)},
		{Family: emit.FamilyPeriodic, Name: "test[8]", Nodes: 8, Rounds: rounds, Emit: emitFn},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]string{2: "K2^1", 3: "test[8]", 8: "test[8]", 9: "K2^4"} {
		if p, _ := pl.For(n); p.Name() != want {
			t.Fatalf("For(%d) = %s, want %s", n, p.Name(), want)
		}
	}
	return pl
}

// TestBucketCompilesOnce: a bucket's program is built on its first
// flush, exactly once, however many flushes race for it — 64
// concurrent first submits to a cold bucket make one Emit call.
func TestBucketCompilesOnce(t *testing.T) {
	var emits atomic.Int64
	pl := emittedPlanner(t, func() (*schedule.Program, error) {
		emits.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the race for the first compile
		return periodic.Emit(8)
	})
	s := testServer(t, Config{Planner: pl, Workers: 8})
	if got := emits.Load(); got != 0 {
		t.Fatalf("New compiled %d programs, want 0 before the first flush", got)
	}

	const submits = 64
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := randKeys(3+i%6, int64(i))
			start.Wait()
			got, err := s.SortKeys(context.Background(), in)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(in) || !slices.IsSorted(got) {
				t.Errorf("request %d: got %v for %v", i, got, in)
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	if got := emits.Load(); got != 1 {
		t.Fatalf("%d Emit calls for one bucket, want 1", got)
	}
}

// TestServerCompileErrorReply: a bucket whose program cannot be built
// answers every batchmate with the compile error, on every flush,
// while the other buckets keep serving.
func TestServerCompileErrorReply(t *testing.T) {
	errEmit := errors.New("test: emit failed")
	pl := emittedPlanner(t, func() (*schedule.Program, error) { return nil, errEmit })
	s, gate := gatedServer(t, Config{Planner: pl})

	for flush := 0; flush < 2; flush++ {
		blocker := holdWorker(t, s, 9) // K2^4
		var chans []<-chan Reply
		for _, n := range []int{3, 5, 8} {
			ch, err := s.Submit(context.Background(), randKeys(n, int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		gate <- struct{}{} // releases the blocker's flush
		gate <- struct{}{} // releases the flush of all three
		if rep := awaitReply(t, blocker); rep.Err != nil {
			t.Fatal(rep.Err)
		}
		for i, ch := range chans {
			rep := awaitReply(t, ch)
			if !errors.Is(rep.Err, errEmit) {
				t.Fatalf("flush %d request %d: error %v, want the compile error", flush, i, rep.Err)
			}
			if rep.Keys != nil || rep.Network != "test[8]" || rep.BatchSize != 3 {
				t.Fatalf("flush %d request %d: reply %+v", flush, i, rep)
			}
		}
	}

	// The other buckets keep serving. A held worker leaves these pairs
	// queued, so the drain flushes them.
	blocker := holdWorker(t, s, 3) // test[8]: answers with the compile error
	inputs := [][]Key{randKeys(1, 1), randKeys(2, 2), randKeys(9, 9), randKeys(16, 16)}
	chans := make([]<-chan Reply, len(inputs))
	for i, in := range inputs {
		ch, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	closeHeld(t, s, gate)
	if rep := awaitReply(t, blocker); !errors.Is(rep.Err, errEmit) {
		t.Fatalf("blocker error %v, want the compile error", rep.Err)
	}
	for i, ch := range chans {
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatalf("request of %d keys: %v", len(inputs[i]), rep.Err)
		}
		checkSorted(t, rep.Keys, inputs[i])
	}
}

// TestServerFlushPanicReply: a bucket whose program build panics
// answers every batchmate with ErrFlushPanic on every flush (the
// program's sync.OnceValues re-raises the panic), counts each panic in
// serve.flush.panics and gives back its admission and worker slots,
// while the other buckets keep serving; once closed, the server has
// left no goroutine behind.
func TestServerFlushPanicReply(t *testing.T) {
	before := runtime.NumGoroutine()
	pl := emittedPlanner(t, func() (*schedule.Program, error) { panic("test: emit panicked") })
	s, gate := gatedServer(t, Config{Planner: pl})
	panics := s.met.Counter("serve.flush.panics")
	plan, _ := pl.For(8)
	b := s.buckets[plan.idx]

	for flush := 1; flush <= 2; flush++ {
		blocker := holdWorker(t, s, 9) // K2^4
		var chans []<-chan Reply
		for _, n := range []int{3, 5, 8} {
			ch, err := s.Submit(context.Background(), randKeys(n, int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		gate <- struct{}{} // releases the blocker's flush
		gate <- struct{}{} // releases the flush of all three
		if rep := awaitReply(t, blocker); rep.Err != nil {
			t.Fatal(rep.Err)
		}
		for i, ch := range chans {
			rep := awaitReply(t, ch)
			if !errors.Is(rep.Err, ErrFlushPanic) || !strings.Contains(rep.Err.Error(), "test: emit panicked") {
				t.Fatalf("flush %d request %d: error %v, want ErrFlushPanic with the panic value", flush, i, rep.Err)
			}
			if rep.Keys != nil || rep.Network != "test[8]" || rep.BatchSize != 3 {
				t.Fatalf("flush %d request %d: reply %+v", flush, i, rep)
			}
		}
		waitSem(t, s, 0)
		if got := panics.Value(); got != int64(flush) {
			t.Fatalf("after flush %d: serve.flush.panics = %d", flush, got)
		}
		if got := b.admitted.Load(); got != 0 {
			t.Fatalf("after flush %d: %d admission slots still held", flush, got)
		}
	}

	// The other buckets keep serving. A held worker leaves these
	// requests queued, so the drain flushes them.
	blocker := holdWorker(t, s, 3) // test[8]: panics again
	inputs := [][]Key{randKeys(1, 1), randKeys(2, 2), randKeys(9, 9), randKeys(16, 16)}
	chans := make([]<-chan Reply, len(inputs))
	for i, in := range inputs {
		ch, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	closeHeld(t, s, gate)
	if rep := awaitReply(t, blocker); !errors.Is(rep.Err, ErrFlushPanic) {
		t.Fatalf("blocker error %v, want ErrFlushPanic", rep.Err)
	}
	for i, ch := range chans {
		rep := awaitReply(t, ch)
		if rep.Err != nil {
			t.Fatalf("request of %d keys: %v", len(inputs[i]), rep.Err)
		}
		checkSorted(t, rep.Keys, inputs[i])
	}
	if got := panics.Value(); got != 3 {
		t.Fatalf("serve.flush.panics = %d, want 3", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after close, %d before the server", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionExactBound: goroutines racing for a bucket's slots with
// none released win exactly depth of them — the add-then-undo counter
// neither over-admits nor leaves a slot unclaimed — and one release
// reopens exactly one slot.
func TestAdmissionExactBound(t *testing.T) {
	for _, depth := range []int64{1, 2, 8, 64} {
		b := &bucket{depth: depth}
		var won atomic.Int64
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < 4*int(depth)+8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if b.reserve() {
					won.Add(1)
				}
			}()
		}
		start.Done()
		wg.Wait()
		if got := won.Load(); got != depth {
			t.Fatalf("depth %d: %d reservations won", depth, got)
		}
		if b.reserve() {
			t.Fatalf("depth %d: admitted past the bound", depth)
		}
		b.release()
		if !b.reserve() {
			t.Fatalf("depth %d: release did not reopen admission", depth)
		}
		if b.reserve() {
			t.Fatalf("depth %d: one release reopened two slots", depth)
		}
		if got := b.admitted.Load(); got != depth {
			t.Fatalf("depth %d: counter %d after the race", depth, got)
		}
	}
}

// TestAdmissionNeverOverAdmits: under concurrent reserve/release churn
// the held count never exceeds depth, and the counter returns to zero
// once every holder has released.
func TestAdmissionNeverOverAdmits(t *testing.T) {
	const depth = 8
	b := &bucket{depth: depth}
	var held, peak, overs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if !b.reserve() {
					continue
				}
				h := held.Add(1)
				if h > depth {
					overs.Add(1)
				}
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				held.Add(-1)
				b.release()
			}
		}()
	}
	wg.Wait()
	if o := overs.Load(); o != 0 {
		t.Fatalf("counter over-admitted %d times (bound %d)", o, depth)
	}
	if got := b.admitted.Load(); got != 0 {
		t.Fatalf("counter = %d after all releases, want 0", got)
	}
	t.Logf("peak concurrent holders: %d/%d", peak.Load(), depth)
}

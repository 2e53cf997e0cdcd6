package serve

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"productsort/internal/graph"
	"productsort/internal/product"
)

// soakDuration returns the soak length: a few hundred milliseconds by
// default (so `go test -race ./internal/serve` always exercises it),
// extended via SOAK_MS for `make serve-soak`.
func soakDuration() time.Duration {
	if ms := os.Getenv("SOAK_MS"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	return 400 * time.Millisecond
}

// TestServerSoak hammers one server from many goroutines with mixed
// sizes, deadlines and cancellations, then drains. Run under -race it
// is the serving layer's concurrency gate: every completed sort must be
// correct, every admitted request must be answered, and the drain must
// finish.
func TestServerSoak(t *testing.T) {
	nets := []*product.Network{product.MustNew(graph.Path(4), 2)} // overlaps hypercube^4
	for r := 1; r <= 6; r++ {
		nets = append(nets, product.MustNew(graph.K2(), r))
	}
	pl, err := productPlanner(nets, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Planner:    pl,
		QueueDepth: 256,
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}

	var completed, shedCount, expired atomic.Int64
	deadline := time.Now().Add(soakDuration())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; time.Now().Before(deadline); i++ {
				n := 1 + rng.Intn(64)
				in := make([]Key, n)
				for j := range in {
					in[j] = Key(rng.Intn(1024) - 512)
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%16 == 15 {
					// Exercise the deadline paths under load.
					ctx, cancel = context.WithTimeout(ctx, 150*time.Microsecond)
				}
				got, err := s.SortKeys(ctx, in)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					want := append([]Key(nil), in...)
					sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
					for k := range got {
						if got[k] != want[k] {
							t.Errorf("goroutine %d: unsorted reply for n=%d", g, n)
							return
						}
					}
					completed.Add(1)
				case errors.Is(err, ErrQueueFull):
					shedCount.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					t.Errorf("goroutine %d: unexpected error: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if _, err := s.Submit(context.Background(), []Key{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after soak close = %v, want ErrClosed", err)
	}
	if completed.Load() == 0 {
		t.Fatal("soak completed zero sorts")
	}
	t.Logf("soak: %d completed, %d shed, %d expired (over %v)",
		completed.Load(), shedCount.Load(), expired.Load(), soakDuration())
}
